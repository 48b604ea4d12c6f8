package repro.queries

import repro.core.Traj

/** Similarity query (Section III-B): return every trajectory whose
  * time-synchronised distance to the query trajectory stays within `delta`
  * (the paper's 5 km) at every instant of the window [ts, te].
  *
  * Simplified trajectories have sparse samples, so both sides are linearly
  * interpolated at a common grid of 32 instants across the window
  * (restricted to instants where the query itself is defined). A trajectory
  * undefined at any such instant does not qualify.
  */
object SimilarityQuery {

  def similar(db: Array[Traj], q: Traj, ts: Double, te: Double, delta: Double): Set[Long] = {
    require(te >= ts)
    val times = (0 until 32)
      .map(i => ts + i * (te - ts) / 31)
      .filter(t => q.at(t).isDefined)
    if (times.isEmpty) return Set.empty
    val qPts = times.map(t => (t, q.at(t).get))
    db.iterator
      .filter { tr =>
        tr.id != q.id && qPts.forall { case (t, qp) =>
          tr.at(t).exists(p => p.distTo(qp) <= delta)
        }
      }
      .map(_.id)
      .toSet
  }
}
