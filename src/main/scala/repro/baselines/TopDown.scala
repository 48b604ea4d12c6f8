package repro.baselines

import scala.collection.mutable
import repro.core.{Model, SimpleDB, Traj}
import repro.traj.ErrorMeasures
import repro.traj.ErrorMeasures.{Measure, SED, PED, DAD, SAD}

/** Top-Down EDTS baseline (Douglas–Peucker style insertion, Hershberger &
  * Snoeyink [10]): start from {first, last} and repeatedly insert the point
  * with the largest error until the budget is reached.
  *
  * Two adaptations (Section V-A):
  *  - E: each trajectory separately with budget max(2, floor(r * |T|)).
  *  - W: one global max-heap over all trajectories' segments; points are
  *    inserted wherever the database-wide error is largest.
  */
object TopDown {

  /** Pointwise split score of interior index `i` of anchor segment (ia, ib).
    * SED/PED score the point itself; DAD/SAD (defined on original segments)
    * score the worse of the two original segments adjacent to `i`.
    */
  private[baselines] def pointScore(m: Measure, tr: Traj, ia: Int, ib: Int, i: Int): Double = {
    val a = tr.points(ia); val b = tr.points(ib)
    m match {
      case SED => ErrorMeasures.sed(a, b, tr.points(i))
      case PED => ErrorMeasures.ped(a, b, tr.points(i))
      case DAD =>
        math.max(
          ErrorMeasures.dad(a, b, tr.points(i - 1), tr.points(i)),
          ErrorMeasures.dad(a, b, tr.points(i), tr.points(i + 1)))
      case SAD =>
        math.max(
          ErrorMeasures.sad(a, b, tr.points(i - 1), tr.points(i)),
          ErrorMeasures.sad(a, b, tr.points(i), tr.points(i + 1)))
    }
  }

  /** Best split of segment (ia, ib): (score, interior index), or None when the
    * segment has no interior.
    */
  private[baselines] def bestSplit(m: Measure, tr: Traj, ia: Int, ib: Int): Option[(Double, Int)] = {
    if (ib - ia <= 1) return None
    var worst = -1.0; var wi = -1
    var i = ia + 1
    while (i < ib) {
      val s = pointScore(m, tr, ia, ib, i)
      if (s > worst) { worst = s; wi = i }
      i += 1
    }
    Some((worst, wi))
  }

  private final case class Entry(score: Double, trajIdx: Int, ia: Int, ib: Int, split: Int)
  private val ord: Ordering[Entry] = Ordering.by[Entry, Double](_.score)

  /** Simplify one trajectory to at most `budget` points: the W loop on a
    * one-trajectory database (E adaptation body).
    */
  def simplifyOne(m: Measure, tr: Traj, budget: Int): Array[Int] =
    simplifyW(m, Array(tr), budget).kept(tr.id)

  /** E adaptation: each trajectory separately, per-trajectory budgets. */
  def simplifyE(m: Measure, db: Array[Traj], totalBudget: Int): SimpleDB =
    Baselines.perTrajectory(db, totalBudget)(simplifyOne(m, _, _))

  /** W adaptation: one global heap over the whole database. */
  def simplifyW(m: Measure, db: Array[Traj], totalBudget: Int): SimpleDB = {
    val keptSets = db.map(tr => mutable.SortedSet.from(Model.endpoints(tr.length)))
    var total = keptSets.map(_.size).sum
    val heap = mutable.PriorityQueue.empty[Entry](ord)
    for (ti <- db.indices if db(ti).length > 2)
      bestSplit(m, db(ti), 0, db(ti).length - 1)
        .foreach(s => heap.enqueue(Entry(s._1, ti, 0, db(ti).length - 1, s._2)))
    while (total < totalBudget && heap.nonEmpty) {
      val e = heap.dequeue()
      keptSets(e.trajIdx) += e.split
      total += 1
      val tr = db(e.trajIdx)
      bestSplit(m, tr, e.ia, e.split).foreach(s => heap.enqueue(Entry(s._1, e.trajIdx, e.ia, e.split, s._2)))
      bestSplit(m, tr, e.split, e.ib).foreach(s => heap.enqueue(Entry(s._1, e.trajIdx, e.split, e.ib, s._2)))
    }
    SimpleDB(db.indices.map(ti => db(ti).id -> keptSets(ti).toArray).toMap)
  }
}
