package repro.core

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}
import repro.data.TrajGen
import repro.queries.{Quality, RangeQuery, Workload}

/** End-to-end tests of the RL4QDTS algorithm (inference), its ablation
  * variants, and the Spark-distributed inference path.
  */
class RL4QDTSSpec extends SparkSpec with PropSupport {

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

  /** The lines of `simplify_pins.txt`. */
  private lazy val pins: Vector[String] = {
    val src = scala.io.Source.fromResource("repro/core/simplify_pins.txt")(scala.io.Codec.UTF8)
    try src.getLines().filterNot(_.startsWith("#")).toVector finally src.close()
  }

  /** Run the simplification a pin line names; returns (its kept indices, the pinned ones). */
  private def runPin(line: String): (String, String) = {
    val Array(profile, dbSeed, seed, usePoint, kept) = line.split(" ")
    val db = TrajGen.genLocal(TrajGen.profiles(profile), if (profile == "chengdu") 10 else 8,
      dbSeed.toLong)
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    val wl = Workload.dataDist(db, 20, 2000, tmax - tmin, dbSeed.toLong + 1)
    val s = RL4QDTS.simplify(db, 2 * db.length + 60, wl, agents.cubeNet, agents.pointNet,
      params, seed.toLong, RL4QDTS.Variant(usePoint = usePoint.toBoolean))
    (db.map(tr => s.kept(tr.id).mkString(",")).mkString(";"), kept)
  }

  test("simplify returns the pinned SimpleDBs (full model and w/o Agent-Point)") {
    assert(pins.length === 8)
    for (line <- pins) {
      val (got, kept) = runPin(line)
      assert(got === kept, line.take(20))
    }
  }

  test("simplify called from four threads at once returns the pinned SimpleDBs") {
    assert(pins.length === 8)
    agents // trained before the threads start
    val start = new java.util.concurrent.CountDownLatch(1)
    val results = new java.util.concurrent.ConcurrentLinkedQueue[(Int, String, String, String)]
    val threads = Seq.tabulate(4) { i =>
      new Thread(() => {
        start.await()
        // each thread runs every pin, from a different first line
        for (j <- pins.indices) {
          val line = pins((i + j) % pins.length)
          val (got, kept) = runPin(line)
          results.add((i, line.take(20), got, kept))
        }
      })
    }
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join())
    assert(results.size === 4 * pins.length)
    results.forEach { case (i, clue, got, kept) => assert(got === kept, s"thread $i $clue") }
  }

  test("degenerate inputs: exact budget, endpoints, sorted unique indices, same result twice") {
    // trajectory shapes: 0, 1 or 2 points; identical points; equal or
    // decreasing timestamps; NaN or infinite coordinates; or plain random
    val shapes = Seq("empty", "one", "two", "identical", "equal t", "decreasing t", "NaN", "+inf",
      "-inf", "random")
    val cases = for {
      seed <- Gen.choose(0L, Long.MaxValue)
      kinds <- Gen.listOfN(6, Gen.oneOf(shapes)).flatMap(ks => Gen.choose(0, 6).map(ks.take))
      budget <- Gen.oneOf("0", "2T", "N", "above N", "between")
      nQueries <- Gen.oneOf(0, 3, 10)
    } yield {
      val rng = new java.util.Random(seed)
      def coord(): Double = rng.nextInt(400).toDouble
      val db = kinds.zipWithIndex.map { case (kind, i) =>
        val len = kind match {
          case "empty" => 0; case "one" => 1; case "two" => 2; case _ => 3 + rng.nextInt(80)
        }
        val p0 = Point(coord(), coord(), 0)
        val pts = Array.tabulate(len) { j =>
          val p = Point(coord(), coord(), j.toDouble)
          kind match {
            case "identical"    => p0
            case "equal t"      => p.copy(t = 5)
            case "decreasing t" => p.copy(t = -j.toDouble)
            case "NaN"          => if (j % 3 == 1) p.copy(x = Double.NaN) else p
            case "+inf"         => if (j % 4 == 2) p.copy(y = Double.PositiveInfinity) else p
            case "-inf"         =>
              if (j == len - 1) p.copy(t = Double.NegativeInfinity)
              else if (j % 5 == 0) p.copy(x = Double.NegativeInfinity) else p
            case _              => p
          }
        }
        Traj(i.toLong, pts)
      }.toArray
      val wl = Array.fill(nQueries) {
        val (x, y) = (coord(), coord())
        Box(x, x + 100, y, y + 100, -10, 50)
      }
      (db, wl, budget, kinds)
    }
    val untrained = Training.makeAgents(params, seed = 41)
    forAllN(cases, 150) { case (db, wl, budget, kinds) =>
      val n = Model.totalPoints(db).toInt
      val e = db.map(tr => math.min(tr.length, 2)).sum
      val w = budget match {
        case "0" => 0; case "2T" => 2 * db.length; case "N" => n; case "above N" => n + 7
        case _ => n / 3
      }
      for (variant <- Seq(RL4QDTS.Variant(), RL4QDTS.Variant(useCube = false),
                          RL4QDTS.Variant(usePoint = false), RL4QDTS.Variant(false, false))) {
        val clue = s"$kinds w=$budget $variant"
        def run() = RL4QDTS.simplify(db, w, wl, untrained.cubeNet, untrained.pointNet, params, 3, variant)
        val s = run()
        assert(s.totalPoints === math.max(e, math.min(w, n)), clue)
        for (tr <- db) {
          val kept = s.kept(tr.id)
          assert(Model.endpoints(tr.length).forall(kept.contains), clue)
          assert(kept.forall(i => i >= 0 && i < tr.length), clue)
          assert(kept.indices.drop(1).forall(j => kept(j - 1) < kept(j)), clue)
        }
        assert(run().kept.view.mapValues(_.toSeq).toMap === s.kept.view.mapValues(_.toSeq).toMap, clue)
      }
    }
  }

  test("simplify on one env equals independent simplify calls with the same seeds") {
    val (db, wl) = setup(nTrajs = 6, seed = 29)
    val env = new QdtsEnv(db, wl, params)
    val runs = (0 until 3).map(r => RL4QDTS.simplify(env, 2 * db.length + 40,
      agents.cubeNet, agents.pointNet, 17 + 7919L * r, RL4QDTS.Variant()))
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
