package repro.core

import org.apache.spark.sql.DataFrame
import repro.queries.Workload
import repro.rl.{DQN, MLP, NetWeights}

/** The RL4QDTS algorithm (Algorithms 1–3): start from the most simplified
  * database (endpoints only), then repeatedly (1) let Agent-Cube traverse the
  * octree from a query-distribution-sampled start cube to choose a cube, and
  * (2) let Agent-Point insert one point of that cube into D', until the
  * budget W is exhausted.
  *
  * `Variant` encodes the Table II ablations: without Agent-Cube the sampled
  * start cube is returned directly (random cube by data distribution);
  * without Agent-Point the max-v_s candidate is inserted greedily.
  */
object RL4QDTS {

  final case class Variant(useCube: Boolean = true, usePoint: Boolean = true) extends Serializable

  /** How one agent picks its action: (state, valid-action mask) ⇒ action. */
  type ActionRule = (Array[Double], Array[Boolean]) => Int

  /** The trained policy's rule: the valid action with the largest Q-value. */
  private def greedy(net: MLP): ActionRule = (s, mask) => DQN.maskedArgmax(net.forward(s), mask)

  /** One MDP step, shared by training and inference: Agent-Cube descends the
    * octree from a sampled start cube (Algorithm 2), Agent-Point picks one of
    * the cube's top-K candidates (Algorithm 3), and that point is inserted
    * into D'. The two rules pick the actions; training and inference differ
    * only in them. Without Agent-Cube the start cube, drawn from the *data*
    * distribution, is used as is (the paper's ablation setup); without
    * Agent-Point the max-v_s candidate is inserted.
    */
  def step(env: QdtsEnv, rng: java.util.Random, variant: Variant,
           cubeAction: ActionRule, pointAction: ActionRule): Unit = {
    var node = env.sampleStartNode(rng, byQuery = variant.useCube)
    var stop = !variant.useCube
    while (!stop && !node.isLeaf) {
      val a = cubeAction(env.cubeState(node), env.cubeMask(node))
      if (a == 8) stop = true else node = node.children(a)
    }
    // the start cube and every child the mask admits have un-inserted points
    val cands = env.candidates(node)
    require(cands.nonEmpty, "chosen cube has no un-inserted points")
    val c =
      if (!variant.usePoint) cands(0)
      else {
        val (s, mask) = env.pointState(node, cands)
        cands(pointAction(s, mask))
      }
    env.insertPoint(c.trajIdx, c.ptIdx)
  }

  /** Simplify `db` to `totalBudget` points, or to all N if fewer (Algorithm 1).
    * Endpoints are always kept, so a budget below the endpoint count returns
    * the endpoints only. The workload provides the octree's query-count
    * statistics and start-level sampling distribution; at inference it is
    * synthetic (Section IV-A).
    */
  def simplify(db: Array[Traj], totalBudget: Int, workload: Array[Box],
               cubeNet: MLP, pointNet: MLP, params: QdtsParams,
               seed: Long = 0, variant: Variant = Variant()): SimpleDB =
    simplify(new QdtsEnv(db, workload, params), totalBudget, cubeNet, pointNet, seed, variant)

  /** `simplify` over an existing env: resets it to the endpoints, then runs
    * Algorithm 1 on its database and workload.
    */
  def simplify(env: QdtsEnv, totalBudget: Int, cubeNet: MLP, pointNet: MLP,
               seed: Long, variant: Variant): SimpleDB = {
    env.reset()
    val rng = new java.util.Random(seed)
    val n = Model.totalPoints(env.db)
    val target = math.min(totalBudget.toLong, n).toInt
    val cubeAction = greedy(cubeNet)
    val pointAction = greedy(pointNet)
    while (env.insertedCount < target) step(env, rng, variant, cubeAction, pointAction)
    env.result
  }

  /** Distributed inference: partition the trajectory relation into `nGroups`
    * batches by `floorMod(traj_id, nGroups)`, ship the trained policy weights
    * in the task closure, and run RL4QDTS on each batch with the budget
    * round(budgetFrac · N_g) through `Model.simplifyGroups`, whose output rows
    * are rows of `points` (it also states the input checks). RL4QDTS is
    * collective per group, so the output depends on `nGroups`; `nGroups = 1`
    * equals the driver-side `simplify` of the whole relation. Since endpoints
    * are always kept, the result has Σ_g max(E_g, min(round(budgetFrac · N_g),
    * N_g)) rows, where E_g is group g's endpoint count; the total can exceed
    * budgetFrac · N by the endpoints.
    */
  def simplifySpark(points: DataFrame, budgetFrac: Double, cubeW: NetWeights,
                    pointW: NetWeights, params: QdtsParams, nGroups: Int,
                    nQueries: Int, querySizeXY: Double, seed: Long = 0): DataFrame = {
    require(budgetFrac > 0 && budgetFrac <= 1, s"budget fraction $budgetFrac out of (0,1]")
    require(nGroups > 0, s"nGroups must be positive, got $nGroups")
    Model.simplifyGroups(points, id => math.floorMod(id, nGroups.toLong)) { (g, db) =>
      val budget = math.round(budgetFrac * Model.totalPoints(db)).toInt
      val workload = Workload.dataDist(db, nQueries, querySizeXY, Workload.fullSpan(db), seed + g)
      simplify(db, budget, workload, MLP.fromWeights(cubeW),
        MLP.fromWeights(pointW), params, seed + 31L * g)
    }
  }
}
