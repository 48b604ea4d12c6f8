package repro.queries

import repro.core.{Model, Traj}

/** kNN query (Section III-B): given a query trajectory and a time window,
  * return the k database trajectories with the smallest dissimilarity to the
  * query restricted to that window. Dissimilarity is EDR or the embedding
  * distance (the t2vec substitute). Trajectories empty in the window rank last.
  * Ties break by trajectory id for determinism. Under EDR, points within
  * 2 km match, and the query window is the kernel's pattern, built once per
  * call.
  */
object KnnQuery {

  sealed trait Similarity { def name: String }
  case object EDR extends Similarity { val name = "edr" }
  case object Embed extends Similarity { val name = "embed" }

  def knn(db: Array[Traj], q: Traj, ts: Double, te: Double, k: Int, sim: Similarity): Seq[Long] = {
    val qw = q.window(ts, te)
    // distance from the query window to a non-empty window
    val dist: Traj => Double = sim match {
      case EDR =>
        val qp = Edr.pattern(qw.points)
        w => Edr.distance(qp, w.points, 2000.0)
      case Embed =>
        val (xmin, xmax, ymin, ymax, _, _) = Model.bounds(db)
        val xs = xmax - xmin; val ys = ymax - ymin
        val qe = TrajEmbed.embed(qw, xmin, xs, ymin, ys)
        w => TrajEmbed.l2(qe, TrajEmbed.embed(w, xmin, xs, ymin, ys))
    }
    val scored: Array[(Double, Long)] = db.map { tr =>
      val w = tr.window(ts, te)
      val d = if (w.points.isEmpty || qw.points.isEmpty) Double.MaxValue else dist(w)
      (d, tr.id)
    }
    scored.sortBy { case (d, id) => (d, id) }.take(k).map(_._2).toSeq
  }
}
