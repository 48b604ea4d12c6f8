package repro.core

import repro.SparkSpec
import repro.data.TrajGen
import repro.queries.{Quality, RangeQuery, Workload}

/** End-to-end tests of the RL4QDTS algorithm (inference), its ablation
  * variants, and the Spark-distributed inference path.
  */
class RL4QDTSSpec extends SparkSpec {

  private val params = QdtsParams(startLevel = 3, maxLevel = 6, k = 2, delta = 10, leafCap = 8)
  private lazy val agents = Training.makeAgents(params, seed = 5)

  private def setup(nTrajs: Int = 10, seed: Long = 3) = {
    val db = TrajGen.genLocal(TrajGen.chengdu, nTrajs, seed)
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    val wl = Workload.dataDist(db, 20, 2000, tmax - tmin, seed + 1)
    (db, wl)
  }

  test("simplify meets the budget exactly") {
    val (db, wl) = setup()
    val n = Model.totalPoints(db).toInt
    val w = 2 * db.length + 40
    val s = RL4QDTS.simplify(db, w, wl, agents.cubeNet, agents.pointNet, params, seed = 1)
    assert(s.totalPoints === w)
    assert(w < n)
  }

  test("budget beyond N keeps every point") {
    val (db, wl) = setup(nTrajs = 3)
    val n = Model.totalPoints(db).toInt
    val s = RL4QDTS.simplify(db, n + 100, wl, agents.cubeNet, agents.pointNet, params, seed = 2)
    assert(s.totalPoints === n)
  }

  test("every simplified trajectory keeps its endpoints in order") {
    val (db, wl) = setup()
    val s = RL4QDTS.simplify(db, 2 * db.length + 30, wl, agents.cubeNet, agents.pointNet, params, seed = 3)
    for (tr <- db) {
      val kept = s.kept(tr.id)
      assert(kept.head === 0 && kept.last === tr.length - 1)
      assert(kept.toSeq === kept.sorted.toSeq && kept.distinct.length === kept.length)
    }
  }

  test("same seed reproduces the same simplification; different seeds may differ") {
    val (db, wl) = setup()
    val w = 2 * db.length + 25
    val a = RL4QDTS.simplify(db, w, wl, agents.cubeNet, agents.pointNet, params, seed = 7)
    val b = RL4QDTS.simplify(db, w, wl, agents.cubeNet, agents.pointNet, params, seed = 7)
    assert(a.kept.view.mapValues(_.toSeq).toMap === b.kept.view.mapValues(_.toSeq).toMap)
  }

  test("all ablation variants produce valid budgeted simplifications") {
    val (db, wl) = setup()
    val w = 2 * db.length + 30
    for (variant <- Seq(
        RL4QDTS.Variant(useCube = true, usePoint = true),
        RL4QDTS.Variant(useCube = false, usePoint = true),
        RL4QDTS.Variant(useCube = true, usePoint = false),
        RL4QDTS.Variant(useCube = false, usePoint = false))) {
      val s = RL4QDTS.simplify(db, w, wl, agents.cubeNet, agents.pointNet, params, 11, variant)
      assert(s.totalPoints === w, variant.toString)
    }
  }

  test("a budget below the endpoint count keeps exactly the endpoints") {
    val (gen, wl) = setup()
    // plus a one-point and a two-point trajectory
    val db = gen :+ Traj(1000, Array(gen(0).points(0))) :+ Traj(1001, gen(1).points.take(2))
    for (variant <- Seq(
        RL4QDTS.Variant(useCube = true, usePoint = true),
        RL4QDTS.Variant(useCube = false, usePoint = true),
        RL4QDTS.Variant(useCube = true, usePoint = false));
        w <- Seq(0, db.length)) {
      val s = RL4QDTS.simplify(db, w, wl, agents.cubeNet, agents.pointNet, params, 5, variant)
      for (tr <- db)
        assert(s.kept(tr.id).toSeq === Model.endpoints(tr.length).toSeq, s"$variant w=$w traj ${tr.id}")
    }
  }

  test("zero-point trajectories keep nothing, and the rest keep their endpoints within budget") {
    val (gen, wl) = setup()
    val db = Traj(2000, Array.empty[Point]) +: gen :+ Traj(2001, Array.empty[Point])
    for (variant <- Seq(
        RL4QDTS.Variant(useCube = true, usePoint = true),
        RL4QDTS.Variant(useCube = false, usePoint = true),
        RL4QDTS.Variant(useCube = true, usePoint = false));
        w <- Seq(0, 2 * gen.length + 30)) {
      val s = RL4QDTS.simplify(db, w, wl, agents.cubeNet, agents.pointNet, params, 5, variant)
      assert(s.totalPoints === math.max(w, 2 * gen.length), s"$variant w=$w")
      assert(s.kept(2000L).isEmpty && s.kept(2001L).isEmpty, s"$variant w=$w")
      for (tr <- gen) {
        val kept = s.kept(tr.id)
        assert(kept.head === 0 && kept.last === tr.length - 1, s"$variant w=$w traj ${tr.id}")
      }
      assert(s.materialise(db).map(_.length).sum === s.totalPoints)
    }
  }

  test("more budget never hurts range-query F1 on the training workload") {
    val (db, wl) = setup(nTrajs = 12, seed = 9)
    val n = Model.totalPoints(db).toInt
    def f1At(w: Int): Double = {
      val s = RL4QDTS.simplify(db, w, wl, agents.cubeNet, agents.pointNet, params, seed = 13)
      val simp = s.materialise(db)
      Quality.mean(wl.toSeq.map(q =>
        Quality.f1(RangeQuery.inMemory(db, q), RangeQuery.inMemory(simp, q))))
    }
    val lo = f1At(2 * db.length + 10)
    val hi = f1At((0.5 * n).toInt)
    assert(hi >= lo - 0.05, s"lo=$lo hi=$hi")
  }

  test("simplify returns the pinned SimpleDBs (full model and w/o Agent-Point)") {
    val src = scala.io.Source.fromResource("repro/core/simplify_pins.txt")
    val pins = try src.getLines().filterNot(_.startsWith("#")).toVector finally src.close()
    assert(pins.length === 8)
    for (line <- pins) {
      val Array(profile, dbSeed, seed, usePoint, kept) = line.split(" ")
      val db = TrajGen.genLocal(TrajGen.profiles(profile), if (profile == "chengdu") 10 else 8,
        dbSeed.toLong)
      val (_, _, _, _, tmin, tmax) = Model.bounds(db)
      val wl = Workload.dataDist(db, 20, 2000, tmax - tmin, dbSeed.toLong + 1)
      val s = RL4QDTS.simplify(db, 2 * db.length + 60, wl, agents.cubeNet, agents.pointNet,
        params, seed.toLong, RL4QDTS.Variant(usePoint = usePoint.toBoolean))
      assert(db.map(tr => s.kept(tr.id).mkString(",")).mkString(";") === kept, line.take(20))
    }
  }

  test("simplifyRuns returns the requested number of runs") {
    val (db, wl) = setup(nTrajs = 5)
    val runs = RL4QDTS.simplifyRuns(db, 2 * db.length + 10, wl,
      agents.cubeNet, agents.pointNet, params, runs = 3, seed = 17)
    assert(runs.size === 3)
    assert(runs.forall(_.totalPoints === 2 * db.length + 10))
  }

  test("simplifyRuns on one env equals independent simplify calls with the same seeds") {
    val (db, wl) = setup(nTrajs = 6, seed = 29)
    val runs = RL4QDTS.simplifyRuns(db, 2 * db.length + 40, wl,
      agents.cubeNet, agents.pointNet, params, runs = 3, seed = 17)
    for ((s, r) <- runs.zipWithIndex) {
      val alone = RL4QDTS.simplify(db, 2 * db.length + 40, wl, agents.cubeNet, agents.pointNet,
        params, seed = 17 + 7919L * r)
      assert(s.kept.view.mapValues(_.toSeq).toMap === alone.kept.view.mapValues(_.toSeq).toMap)
    }
  }

  test("simplifySpark respects the per-group budget fraction") {
    val (db, _) = setup(nTrajs = 12, seed = 21)
    val df = Model.toDF(spark, db.toSeq)
    val out = RL4QDTS.simplifySpark(df, budgetFrac = 0.1,
      agents.cubeNet.snapshot, agents.pointNet.snapshot, params,
      nGroups = 3, nQueries = 10, querySizeXY = 2000, seed = 23)
    val total = out.count()
    val n = Model.totalPoints(db)
    // per group: max(2*M_g, round(0.1 * N_g)); overall bounded by N
    assert(total >= 2L * db.length)
    assert(total <= math.max((0.1 * n).toLong + 3 * 2 * db.length, n))
    // endpoints of every trajectory present
    val perTraj = out.groupBy("traj_id").count().collect()
    assert(perTraj.length === db.length)
    assert(perTraj.forall(_.getLong(1) >= 2))
  }

  test("simplifySpark output points all exist in the original relation") {
    val (db, _) = setup(nTrajs = 6, seed = 25)
    val df = Model.toDF(spark, db.toSeq).cache()
    val out = RL4QDTS.simplifySpark(df, 0.2, agents.cubeNet.snapshot,
      agents.pointNet.snapshot, params, nGroups = 2, nQueries = 5,
      querySizeXY = 2000, seed = 27)
    assert(out.join(df, Seq("traj_id", "idx", "x", "y", "t"), "left_anti").count() === 0)
    df.unpersist()
  }

  test("simplifySpark rejects bad budget fractions") {
    val (db, _) = setup(nTrajs = 2)
    val df = Model.toDF(spark, db.toSeq)
    intercept[IllegalArgumentException] {
      RL4QDTS.simplifySpark(df, 0.0, agents.cubeNet.snapshot,
        agents.pointNet.snapshot, params, 2, 5, 2000)
    }
  }

  test("simplifySpark rejects a non-positive group count before planning") {
    val (db, _) = setup(nTrajs = 2)
    val df = Model.toDF(spark, db.toSeq)
    for (nGroups <- Seq(0, -3)) {
      val e = intercept[IllegalArgumentException] {
        RL4QDTS.simplifySpark(df, 0.1, agents.cubeNet.snapshot,
          agents.pointNet.snapshot, params, nGroups, 5, 2000)
      }
      assert(e.getMessage.contains("nGroups"))
    }
  }
}
