package repro.baselines

import scala.collection.mutable
import repro.core.{SimpleDB, Traj}
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
    var count: Int = n
    def droppable(i: Int): Boolean = alive(i) && i > 0 && i < n - 1
  }

  /** Core bottom-up loop.
    *
    * @param m        error measure
    * @param db       trajectories
    * @param perTraj  per-trajectory budgets (E adaptation) or None (W: use `totalBudget`)
    * @param totalBudget global budget (ignored in E mode)
    * @param k        number of cheapest candidates offered to the chooser
    * @param choose   picks the index (0-based, into the cost-sorted candidate
    *                 array) of the drop to perform; `_ => 0` is classic Bottom-Up
    */
  def run(
      m: Measure,
      db: Array[Traj],
      perTraj: Option[Array[Int]],
      totalBudget: Int,
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
    val eligible: Int => Boolean = perTraj match {
      case Some(budgets) => ti => states(ti).count > math.max(2, budgets(ti))
      case None          => ti => states(ti).count > 2
    }
    for (ti <- db.indices if eligible(ti); i <- 1 until db(ti).length - 1) push(ti, i)

    var total = states.map(_.count.toLong).sum

    def goalMet: Boolean = perTraj match {
      case Some(budgets) => db.indices.forall(ti => states(ti).count <= math.max(2, budgets(ti)))
      case None          => total <= totalBudget
    }

    def popValid(): Option[HeapEntry] = {
      while (heap.nonEmpty) {
        val e = heap.dequeue()
        val st = states(e.trajIdx)
        val stillEligible = perTraj match {
          case Some(budgets) => st.count > math.max(2, budgets(e.trajIdx))
          case None          => true
        }
        if (st.droppable(e.ptIdx) && st.stamp(e.ptIdx) == e.stamp && stillEligible)
          return Some(e)
      }
      None
    }

    while (!goalMet) {
      // gather up to k valid cheapest candidates
      val popped = mutable.ArrayBuffer.empty[HeapEntry]
      var done = false
      while (!done && popped.length < k) popValid() match {
        case Some(e) => popped += e
        case None    => done = true
      }
      if (popped.isEmpty) {
        // nothing droppable left (all trajectories at 2 points)
        return result(db, states)
      }
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
      st.count -= 1
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

  /** Simplify one trajectory to `budget` points (used by tests and RLTS+ training). */
  def simplifyOne(m: Measure, tr: Traj, budget: Int): Array[Int] = {
    val s = run(m, Array(tr), Some(Array(budget)), 0)
    s.kept(tr.id)
  }

  /** E adaptation: per-trajectory budgets proportional to length. */
  def simplifyE(m: Measure, db: Array[Traj], totalBudget: Int): SimpleDB =
    run(m, db, Some(Baselines.eBudgets(db, totalBudget)), 0)

  /** W adaptation: drop the globally cheapest point until the total budget. */
  def simplifyW(m: Measure, db: Array[Traj], totalBudget: Int): SimpleDB =
    run(m, db, None, totalBudget)
}
