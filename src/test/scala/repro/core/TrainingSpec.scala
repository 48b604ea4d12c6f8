package repro.core

import repro.SparkSpec
import repro.data.TrajGen
import repro.queries.{Quality, RangeQuery, Workload}

/** Training-loop tests (kept small: a few tiny databases and episodes). */
class TrainingSpec extends SparkSpec {

  private val params = QdtsParams(startLevel = 3, maxLevel = 6, k = 2, delta = 15, leafCap = 8)

  private lazy val cfg = Training.TrainConfig(
    profile = TrajGen.chengdu, nDbs = 2, trajsPerDb = 10, episodesPerDb = 2,
    budgetFrac = 0.1, nQueries = 30, querySizeXY = 2000, params = params,
    trainStepsPerWindow = 4, seed = 7)

  private lazy val trained = Training.train(cfg)

  test("makeAgents builds the paper's architectures") {
    val a = Training.makeAgents(params)
    assert(a.cube.stateDim === 16 && a.cube.nActions === 9)
    assert(a.point.stateDim === 4 && a.point.nActions === 2)
  }

  test("training fills both replay memories") {
    assert(trained.cube.memory.size > 0)
    assert(trained.point.memory.size > 0)
  }

  test("training decays both epsilons") {
    assert(trained.cube.epsilon < 1.0)
    assert(trained.point.epsilon < 1.0)
  }

  test("training changes the policy networks") {
    val fresh = Training.makeAgents(params, seed = cfg.seed)
    val s = Array.fill(16)(0.1)
    assert(trained.cubeNet.forward(s).toSeq !== fresh.cubeNet.forward(s).toSeq)
  }

  test("best-model selection records a validated snapshot") {
    assert(trained.bestValF1 > 0.0)
    assert(trained.bestCube.nonEmpty && trained.bestPoint.nonEmpty)
    // inference nets come from the snapshot, not the (possibly drifted) online nets
    val s = Array.fill(16)(0.2)
    assert(trained.cubeNet.forward(s).toSeq ===
      repro.rl.MLP.fromWeights(trained.bestCube.get).forward(s).toSeq)
  }

  test("training reproduces the pinned run (validation F1 and final online nets)") {
    def bits(xs: Array[Double]) = xs.map(java.lang.Double.doubleToLongBits).toSeq
    assert(trained.bestValF1 === 1.0)
    assert(bits(trained.cube.online.forward(Array.fill(16)(0.1))) === Seq(
      4581512992505244307L, 4584846157069675988L, -4635048892995995645L,
      -4629244365879044784L, 4586624117301413191L, -4630923064370232851L,
      -4632960395961013526L, 4583318207220203163L, 4575402634683998952L))
    assert(bits(trained.point.online.forward(Array.fill(4)(0.1))) ===
      Seq(-4651958910240683127L, -4637655577463042101L))
  }

  test("trained policies drive inference without errors and meet budgets") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 12, 77)
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    val wl = Workload.dataDist(db, 20, 2000, tmax - tmin, 78)
    val w = math.max(2 * db.length + 20, (0.1 * Model.totalPoints(db)).toInt)
    val s = RL4QDTS.simplify(db, w, wl, trained.cubeNet, trained.pointNet, params, seed = 79)
    assert(s.totalPoints === w)
  }

  test("trained RL4QDTS achieves reasonable range-query F1 at 10% budget") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 12, 81)
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    val wl = Workload.dataDist(db, 30, 2000, tmax - tmin, 82)
    val w = math.max(2 * db.length + 20, (0.1 * Model.totalPoints(db)).toInt)
    val s = RL4QDTS.simplify(db, w, wl, trained.cubeNet, trained.pointNet, params, seed = 83)
    val simp = s.materialise(db)
    val f1 = Quality.mean(wl.toSeq.map(q =>
      Quality.f1(RangeQuery.inMemory(db, q), RangeQuery.inMemory(simp, q))))
    assert(f1 > 0.3, s"f1=$f1")
  }
}
