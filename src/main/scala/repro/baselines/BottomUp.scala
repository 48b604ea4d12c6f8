package repro.baselines

import scala.collection.mutable
import repro.core.{Model, SimpleDB, Traj}
import repro.traj.ErrorMeasures
import repro.traj.ErrorMeasures.Measure

/** Bottom-Up EDTS baseline (Marteau & Ménier [11]): start from the full
  * database and repeatedly drop the interior point whose removal introduces
  * the smallest merged-segment error, until the budget is met.
  *
  * The dropping loop is factored as `run` with a pluggable chooser over the
  * `k` cheapest candidate drops so that RLTS+ (which replaces the min-cost
  * heuristic with a learned policy over the candidates) reuses the exact same
  * machinery with k > 1.
  */
object BottomUp {

  /** A candidate drop: removing point `ptIdx` of trajectory `trajIdx` merges
    * its neighbours into one segment of error `cost`.
    */
  final case class Cand(cost: Double, trajIdx: Int, ptIdx: Int)

  private final case class HeapEntry(cost: Double, trajIdx: Int, ptIdx: Int, stamp: Int)
  private val ord: Ordering[HeapEntry] = Ordering.by[HeapEntry, Double](_.cost).reverse // min-heap

  /** Mutable doubly-linked index structure of one trajectory during dropping. */
  private final class TrajState(val tr: Traj) {
    val n: Int = tr.length
    val prev: Array[Int] = Array.tabulate(n)(i => i - 1)
    val next: Array[Int] = Array.tabulate(n)(i => i + 1)
    val alive: Array[Boolean] = Array.fill(n)(true)
    val stamp: Array[Int] = Array.fill(n)(0)
    def droppable(i: Int): Boolean = alive(i) && i > 0 && i < n - 1
  }

  /** Core bottom-up loop: drop the cheapest droppable point of any
    * trajectory until the database holds at most `target` points or nothing
    * is droppable. Only interior points are droppable, so no trajectory
    * falls below min(n_i, 2) points. With target W this is the W adaptation;
    * on a one-trajectory database it simplifies that trajectory alone.
    *
    * @param m      error measure
    * @param db     trajectories
    * @param target total point count at which dropping stops
    * @param k      number of cheapest candidates offered to the chooser
    * @param choose picks the index (0-based, into the cost-sorted candidate
    *               array) of the drop to perform; `_ => 0` is classic Bottom-Up
    */
  def run(
      m: Measure,
      db: Array[Traj],
      target: Long,
      k: Int = 1,
      choose: Array[Cand] => Int = _ => 0): SimpleDB = {

    val states = db.map(new TrajState(_))
    val heap = mutable.PriorityQueue.empty[HeapEntry](ord)

    def cost(ti: Int, i: Int): Double = {
      val st = states(ti)
      ErrorMeasures.segError(m, st.tr, st.prev(i), st.next(i))
    }

    def push(ti: Int, i: Int): Unit = {
      val st = states(ti)
      if (st.droppable(i)) heap.enqueue(HeapEntry(cost(ti, i), ti, i, st.stamp(i)))
    }

    // seed
    for (ti <- db.indices; i <- 1 until db(ti).length - 1) push(ti, i)

    var total = Model.totalPoints(db)

    while (total > target) {
      // gather up to k valid cheapest candidates, discarding stale entries
      val popped = mutable.ArrayBuffer.empty[HeapEntry]
      while (popped.length < k && heap.nonEmpty) {
        val e = heap.dequeue()
        val st = states(e.trajIdx)
        if (st.droppable(e.ptIdx) && st.stamp(e.ptIdx) == e.stamp) popped += e
      }
      // nothing droppable left: every trajectory is down to its endpoints
      if (popped.isEmpty) return result(db, states)
      val cands = popped.map(e => Cand(e.cost, e.trajIdx, e.ptIdx)).toArray
      val chosen = math.max(0, math.min(cands.length - 1, choose(cands)))
      // re-push the not-chosen candidates
      for ((e, idx) <- popped.zipWithIndex if idx != chosen)
        heap.enqueue(e)
      // perform the drop
      val e = popped(chosen)
      val st = states(e.trajIdx)
      val i = e.ptIdx
      val p = st.prev(i); val nx = st.next(i)
      st.alive(i) = false
      st.next(p) = nx; st.prev(nx) = p
      total -= 1
      // neighbours' merge costs changed: bump stamps, re-push
      if (st.droppable(p)) { st.stamp(p) += 1; push(e.trajIdx, p) }
      if (st.droppable(nx)) { st.stamp(nx) += 1; push(e.trajIdx, nx) }
    }
    result(db, states)
  }

  private def result(db: Array[Traj], states: Array[TrajState]): SimpleDB =
    SimpleDB(db.indices.map { ti =>
      val st = states(ti)
      db(ti).id -> (0 until st.n).filter(st.alive).toArray
    }.toMap)

  /** Simplify one trajectory to max(2, `budget`) points, or all of them if
    * it has fewer.
    */
  def simplifyOne(m: Measure, tr: Traj, budget: Int): Array[Int] =
    run(m, Array(tr), math.max(2, budget)).kept(tr.id)

  /** E adaptation: each trajectory simplified alone to its E budget. */
  def simplifyE(m: Measure, db: Array[Traj], totalBudget: Int): SimpleDB =
    Baselines.perTrajectory(db, totalBudget)(simplifyOne(m, _, _))

  /** W adaptation: drop the globally cheapest point until the total budget. */
  def simplifyW(m: Measure, db: Array[Traj], totalBudget: Int): SimpleDB =
    run(m, db, totalBudget)
}
