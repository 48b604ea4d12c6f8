package repro.baselines

import repro.core.{SimpleDB, Traj}
import repro.rl.{DQN, Transition}
import repro.traj.ErrorMeasures.Measure

/** RLTS+ baseline (Wang et al., ICDE'21 [13]): Bottom-Up dropping where the
  * point to drop is chosen by a learned DQN policy among the `k` cheapest
  * candidate drops, instead of always the cheapest. The reward is the negative
  * (normalised) merge error the drop introduces — the error measure the agent
  * is trained to minimise, as in the original (which is query-unaware).
  *
  * One policy per error measure, trained on one trajectory at a time; the
  * trained policy is shared between the E (each trajectory alone) and W
  * (whole-database) adaptations.
  */
final class RltsPlus(val measure: Measure, seed: Long) {

  private val k = 3

  val dqn = new DQN(stateDim = k, nActions = k, lr = 0.005, seed = seed)

  /** State: the k candidate merge costs, each normalised by the current worst
    * candidate (scale-free, as the original normalises by trajectory extent).
    * Missing candidates (fewer than k droppable points) are encoded as 1.0
    * and masked.
    */
  private def state(cands: Array[BottomUp.Cand]): (Array[Double], Array[Boolean]) = {
    val maxC = math.max(cands.map(_.cost).max, 1e-12)
    val s = Array.tabulate(k)(i => if (i < cands.length) cands(i).cost / maxC else 1.0)
    val mask = Array.tabulate(k)(i => i < cands.length)
    (s, mask)
  }

  /** Train on a set of trajectories: each trajectory is one episode of
    * bottom-up dropping to `budgetFrac` with ε-greedy choices; rewards are
    * the negative normalised merge cost of the chosen drop.
    */
  def train(trajs: Array[Traj], budgetFrac: Double, episodes: Int): Unit = {
    for (_ <- 0 until episodes; tr <- trajs if tr.length > 4) {
      var pending: Option[(Array[Double], Int, Double, Array[Boolean])] = None
      // typical cost scale of this trajectory for reward normalisation
      val scale = math.max(1e-9, trajScale(tr))
      BottomUp.run(
        measure, Array(tr), Baselines.eBudget(budgetFrac, tr), k,
        choose = cands => {
          val (s, mask) = state(cands)
          // close the previous pending transition with the now-known next state
          pending.foreach { case (ps, pa, pr, _) =>
            dqn.remember(Transition(ps, pa, pr, s, mask, done = false))
          }
          val a = dqn.selectAction(s, mask, explore = true)
          val reward = -cands(math.min(a, cands.length - 1)).cost / scale
          pending = Some((s, a, reward, mask))
          dqn.trainStep()
          a
        })
      pending.foreach { case (ps, pa, pr, mask) =>
        dqn.remember(Transition(ps, pa, pr, new Array[Double](k), mask, done = true))
      }
      dqn.decayEpsilon()
    }
  }

  private def trajScale(tr: Traj): Double = {
    // average inter-point distance (spatial measures) — also a usable scale
    // for DAD (radians ~ O(1)) and SAD (speeds) after normalisation by max
    var s = 0.0
    var i = 1
    while (i < tr.length) { s += tr.points(i - 1).distTo(tr.points(i)); i += 1 }
    math.max(s / math.max(tr.length - 1, 1), 1e-9)
  }

  private def greedyChoose(cands: Array[BottomUp.Cand]): Int = {
    val (s, mask) = state(cands)
    dqn.selectAction(s, mask, explore = false)
  }

  /** Simplify one trajectory to max(2, `budget`) points with the learned
    * drop policy, as in training.
    */
  def simplifyOne(tr: Traj, budget: Int): Array[Int] =
    BottomUp.run(measure, Array(tr), math.max(2, budget), k, greedyChoose).kept(tr.id)

  /** E adaptation: each trajectory simplified alone to its E budget. */
  def simplifyE(db: Array[Traj], totalBudget: Int): SimpleDB =
    Baselines.perTrajectory(db, totalBudget)(simplifyOne)

  /** W adaptation: global candidate pool, learned drop policy. */
  def simplifyW(db: Array[Traj], totalBudget: Int): SimpleDB =
    BottomUp.run(measure, db, totalBudget, k, greedyChoose)
}
