package repro.core

import org.apache.spark.sql.DataFrame
import repro.index.OctNode
import repro.queries.Workload
import repro.rl.{DQN, MLP, NetWeights}

/** The RL4QDTS algorithm (Algorithms 1–3): start from the most simplified
  * database (endpoints only), then repeatedly (1) let Agent-Cube traverse the
  * octree from a query-distribution-sampled start cube to choose a cube, and
  * (2) let Agent-Point insert one point of that cube into D', until the
  * budget W is exhausted.
  *
  * `Variant` encodes the Table II ablations: without Agent-Cube the sampled
  * start cube is returned directly (random cube by query distribution);
  * without Agent-Point the max-v_s candidate is inserted greedily.
  */
object RL4QDTS {

  final case class Variant(useCube: Boolean = true, usePoint: Boolean = true) extends Serializable

  /** Agent-Cube traversal (Algorithm 2) with a trained policy network. */
  private def chooseCube(env: QdtsEnv, rng: java.util.Random, cubeNet: MLP,
                         variant: Variant): OctNode = {
    // w/o Agent-Cube: a random cube drawn from the *data* distribution is
    // handed straight to Agent-Point (the paper's ablation setup)
    var node = env.sampleStartNode(rng, byQuery = variant.useCube)
    if (!variant.useCube) return node
    var stop = false
    while (!stop && !node.isLeaf) {
      val s = env.cubeState(node)
      val mask = env.cubeMask(node)
      val a = DQN.maskedArgmax(cubeNet.forward(s), mask)
      if (a == 8) stop = true else node = node.children(a)
    }
    node
  }

  /** Agent-Point choice (Algorithm 3) with a trained policy network. */
  private def choosePoint(env: QdtsEnv, node: OctNode, pointNet: MLP,
                          variant: Variant): env.Candidate = {
    val cands = env.candidates(node)
    require(cands.nonEmpty, "chosen cube has no un-inserted points")
    if (!variant.usePoint || cands.length == 1) cands(0) // greedy: max v_s
    else {
      val (s, mask) = env.pointState(node, cands)
      val a = DQN.maskedArgmax(pointNet.forward(s), mask)
      cands(math.min(a, cands.length - 1))
    }
  }

  /** Simplify `db` to at most `totalBudget` points (Algorithm 1). The
    * workload provides the octree's query-count statistics and start-level
    * sampling distribution; at inference it is synthetic (Section IV-A).
    */
  def simplify(db: Array[Traj], totalBudget: Int, workload: Array[Box],
               cubeNet: MLP, pointNet: MLP, params: QdtsParams = QdtsParams(),
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
    while (env.insertedCount < target) {
      val node = chooseCube(env, rng, cubeNet, variant)
      val c = choosePoint(env, node, pointNet, variant)
      env.insertPoint(c.trajIdx, c.ptIdx)
    }
    env.result
  }

  /** Run `simplify` `runs` times with different seeds (the paper reports the
    * mean and standard deviation over 50 runs because of the random start-cube
    * sampling) on one env; returns the simplified databases.
    */
  def simplifyRuns(db: Array[Traj], totalBudget: Int, workload: Array[Box],
                   cubeNet: MLP, pointNet: MLP, params: QdtsParams, runs: Int,
                   seed: Long = 0, variant: Variant = Variant()): Seq[SimpleDB] = {
    val env = new QdtsEnv(db, workload, params)
    (0 until runs).map(r => simplify(env, totalBudget, cubeNet, pointNet, seed + 7919L * r, variant))
  }

  /** Distributed inference: partition the trajectory relation into `nGroups`
    * batches, broadcast the trained policy weights, and run RL4QDTS per batch
    * with a proportional budget via `groupByKey.flatMapGroups` — trajectory
    * simplification per partition with the RL agents invoked per trajectory
    * batch. Returns the simplified points relation.
    */
  def simplifySpark(points: DataFrame, budgetFrac: Double, cubeW: NetWeights,
                    pointW: NetWeights, params: QdtsParams, nGroups: Int,
                    nQueries: Int, querySizeXY: Double, seed: Long = 0,
                    variant: Variant = Variant()): DataFrame = {
    val spark = points.sparkSession
    import spark.implicits._
    require(budgetFrac > 0 && budgetFrac <= 1, s"budget fraction $budgetFrac out of (0,1]")
    Model.toTrajDS(points)
      .groupByKey(tr => math.floorMod(tr.id, nGroups.toLong))
      .flatMapGroups { (g, it) =>
        val db = it.toArray.sortBy(_.id)
        val n = db.map(_.length.toLong).sum
        val budget = math.max(2L * db.length, math.round(budgetFrac * n)).toInt
        val (_, _, _, _, tmin, tmax) = Model.bounds(db)
        val workload = Workload.dataDist(db, nQueries, querySizeXY,
          math.max(tmax - tmin, 1.0), seed + g)
        val sdb = simplify(db, budget, workload, MLP.fromWeights(cubeW),
          MLP.fromWeights(pointW), params, seed + 31L * g, variant)
        db.iterator.flatMap { tr =>
          sdb.kept(tr.id).iterator.map(i =>
            PointRow(tr.id, i, tr.points(i).x, tr.points(i).y, tr.points(i).t))
        }
      }
      .toDF()
  }
}
