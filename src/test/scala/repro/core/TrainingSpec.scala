package repro.core

import repro.SparkSpec
import repro.data.TrajGen
import repro.queries.{Quality, RangeQuery, Workload}

/** Training-loop tests (kept small: a few tiny databases and episodes). */
class TrainingSpec extends SparkSpec {

  private val params = QdtsParams(startLevel = 3, maxLevel = 6, k = 2, delta = 15, leafCap = 8)

  private lazy val cfg = Training.TrainConfig(
    profile = TrajGen.chengdu, nDbs = 2, trajsPerDb = 10, episodesPerDb = 2,
    budgetFrac = 0.1, nQueries = 30, querySizeXY = 2000, workloadKind = "data", params = params,
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

  test("best-model selection reproduces the pinned validation F1s and best snapshot") {
    // a config whose validation F1 peaks at the second of four episodes, so
    // validating any other snapshot than each episode's own changes the pins
    val cfg2 = cfg.copy(profile = TrajGen.geolife, trajsPerDb = 12, budgetFrac = 0.05,
      querySizeXY = 300)
    val a = Training.train(cfg2)
    def bits(xs: Seq[Double]) = xs.map(java.lang.Double.doubleToLongBits)
    assert(bits(a.valF1s) === Seq(4605380978949069210L, 4605681218924227243L,
      4605080738973911177L, 4604480259023595110L)) // 0.8, 0.8333…, 0.7666…, 0.7
    assert(a.bestValF1 === a.valF1s.max)
    assert(bits(a.cubeNet.forward(Array.fill(16)(0.1)).toSeq) === Seq(
      -4635661841727713266L, 4599361892529185289L, 4588650557850824581L,
      -4628676633709253942L, 4587487564534029968L, 4584020153921798050L,
      4593990497725566434L, 4588230100859720682L, 4598809739524012413L))
    assert(bits(a.pointNet.forward(Array.fill(4)(0.1)).toSeq) ===
      Seq(4600256114166501565L, -4641326237312119978L))
    // in the pinned run every episode validates at 1.0: the strict `>` keeps
    // the first episode's snapshot
    assert(bits(trained.valF1s) === Seq.fill(4)(java.lang.Double.doubleToLongBits(1.0)))
    assert(bits(trained.cubeNet.forward(Array.fill(16)(0.1)).toSeq) === Seq(
      -4640071026072376518L, 4587694823924386840L, -4626654371735511976L,
      -4632835676761066276L, -4632728566507598853L, -4638077808964739585L,
      -4643436422648543243L, 4591263291756819417L, 4590194901219749834L))
    assert(bits(trained.pointNet.forward(Array.fill(4)(0.1)).toSeq) ===
      Seq(-4636423117279279635L, -4637293869723239605L))
  }

  test("training with both learners on the caller gives the bits of the default run") {
    def bits(xs: Array[Double]) = xs.map(java.lang.Double.doubleToLongBits).toSeq
    def netBits(w: repro.rl.NetWeights) = bits(w.w1.flatten ++ w.b1 ++ w.w2.flatten ++ w.b2)
    // inside `inCaller` all of training runs on this thread: each database's
    // episode and validation tasks in turn, and within them each window's two
    // learner tasks
    val one = repro.Par.inCaller(Training.train(cfg))
    assert(netBits(one.cube.online.snapshot) === netBits(trained.cube.online.snapshot))
    assert(netBits(one.point.online.snapshot) === netBits(trained.point.online.snapshot))
    assert(netBits(one.bestCube.get) === netBits(trained.bestCube.get))
    assert(netBits(one.bestPoint.get) === netBits(trained.bestPoint.get))
    assert(bits(one.valF1s.toArray) === bits(trained.valF1s.toArray))
  }

  test("train rethrows the exception of a failed env build") {
    val e = intercept[IllegalArgumentException] {
      Training.train(cfg.copy(workloadKind = "no-such-kind", nDbs = 50))
    }
    assert(e.getMessage === "unknown workload no-such-kind")
  }

  test("train with no database or no episode returns untrained agents") {
    val fresh = Training.makeAgents(params, seed = cfg.seed)
    val s = Array.fill(16)(0.1)
    for (c <- Seq(cfg.copy(nDbs = 0), cfg.copy(episodesPerDb = 0))) {
      val a = Training.train(c)
      assert(a.valF1s.isEmpty && a.bestValF1 === -1.0)
      assert(a.bestCube.isEmpty && a.bestPoint.isEmpty)
      assert(a.cubeNet eq a.cube.online)
      assert(a.cube.memory.size === 0 && a.point.memory.size === 0)
      assert(a.cubeNet.forward(s).toSeq === fresh.cubeNet.forward(s).toSeq)
    }
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
