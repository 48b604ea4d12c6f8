package repro.exp

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}
import repro.core.ModelTestOps.firstLast
import repro.baselines.TopDown
import repro.core.{Model, Point, SimpleDB, Training, Traj}
import repro.data.TrajGen
import repro.traj.ErrorMeasures

/** Tests of the shared experiment harness (evaluator, adaptive parameters,
  * table rendering) that the bench suites build on.
  */
class ExperimentsSpec extends SparkSpec with PropSupport {

  // small but non-trivial database in the bench profile family
  private lazy val db = TrajGen.genLocal(Experiments.benchProfile.copy(avgLen = 150), 20, 9)

  test("paramsFor scales the start level with database size") {
    assert(Experiments.paramsFor(50_000).startLevel === 3)
    assert(Experiments.paramsFor(135_000).startLevel === 3)
    assert(Experiments.paramsFor(350_000).startLevel === 4)
    assert(Experiments.paramsFor(3_000_000).startLevel === 5)
    // never beyond maxLevel - 1
    assert(Experiments.paramsFor(Long.MaxValue / 4).startLevel
      <= Experiments.benchParams.maxLevel - 1)
  }

  test("evaluator range queries have non-empty ground truths") {
    val ev = new Experiments.Evaluator(db, "data")
    assert(ev.rangeQs.length === 100)
    assert(ev.gtSummary.contains("rangeGT(nonempty)=100/100"))
  }

  test("the identity simplification scores (near) perfect on every task") {
    val ev = new Experiments.Evaluator(db, "data")
    val identity = repro.core.SimpleDB(db.map(t => t.id -> Array.tabulate(t.length)(i => i)).toMap)
    val f1 = ev.evaluate(identity)
    assert(f1.range === 1.0)
    assert(f1.knnEdr === 1.0 && f1.knnEmbed === 1.0)
    assert(f1.similarity === 1.0)
    assert(f1.clustering === 1.0)
  }

  test("endpoint-only simplification scores within [0,1] and below identity on range") {
    val ev = new Experiments.Evaluator(db, "data")
    val f1 = ev.evaluate(firstLast(db))
    for (v <- Seq(f1.range, f1.knnEdr, f1.knnEmbed, f1.similarity, f1.clustering))
      assert(v >= 0.0 && v <= 1.0)
    assert(f1.range < 1.0) // straight-line 2-point trajectories must lose some queries
  }

  test("rangeF1 agrees with the range component of evaluate") {
    val ev = new Experiments.Evaluator(db, "data")
    val s = firstLast(db)
    assert(math.abs(ev.rangeF1(s) - ev.evaluate(s).range) < 1e-12)
  }

  /** The 30-trajectory bench DB, its evaluator, and each pinned simplification
    * with the raw bits (hex) of its five F1s.
    */
  private lazy val pinned = {
    val src = scala.io.Source.fromResource("repro/exp/evaluate_pins.txt")(scala.io.Codec.UTF8)
    val pins = try src.getLines().filterNot(_.startsWith("#")).toVector finally src.close()
    assert(pins.length === 4)
    val bench = Experiments.benchDb(nTrajs = 30)
    val cases = pins.map { line =>
      val Array(method, frac, bits @ _*) = line.split(" ")
      val s =
        if (method == "endpoints") firstLast(bench)
        else TopDown.simplifyW(ErrorMeasures.byName(method), bench,
          (frac.toDouble * Model.totalPoints(bench)).toInt)
      (s"$method $frac", s, bits)
    }
    (new Experiments.Evaluator(bench, "data"), cases)
  }

  private def f1Bits(f: Experiments.TaskF1): Seq[String] =
    Seq(f.range, f.knnEdr, f.knnEmbed, f.similarity, f.clustering)
      .map(v => java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(v)))

  test("evaluate returns the pinned F1 bits on the 30-trajectory bench DB") {
    val (ev, cases) = pinned
    for ((name, s, bits) <- cases) {
      val f = ev.evaluate(s)
      assert(f1Bits(f) === bits, s"$name: ${f.fmt}")
    }
  }

  test("one evaluator scored from 4 threads at once returns the pinned F1 bits") {
    val (ev, cases) = pinned
    val start = new java.util.concurrent.CountDownLatch(1)
    val results = new java.util.concurrent.ConcurrentLinkedQueue[(String, Seq[String], Seq[String])]()
    val threads = Seq.tabulate(4) { k =>
      new Thread(() => {
        start.await()
        // each thread scores every case, starting from a different one
        for (c <- cases.indices) {
          val (name, s, bits) = cases((c + k) % cases.length)
          results.add((name, f1Bits(ev.evaluate(s)), bits))
        }
      })
    }
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join())
    assert(results.size === 4 * cases.length)
    results.forEach { case (name, got, bits) => assert(got === bits, name) }
  }

  test("a failing task rethrows its own exception, not a wrapper") {
    // Par directly: the failure happens on another thread than the one waiting for it
    val boom = new IllegalStateException("boom")
    val thrown = new java.util.concurrent.CountDownLatch(1)
    val ran = new java.util.concurrent.atomic.AtomicInteger
    val e = intercept[IllegalStateException] {
      repro.Par.all(Seq(
        () => { thrown.await(10, java.util.concurrent.TimeUnit.SECONDS); ran.incrementAndGet() },
        () => try throw boom finally thrown.countDown(),
        () => throw new IllegalArgumentException("later"),
        () => ran.incrementAndGet()))
    }
    assert(e eq boom)
    assert(ran.get === 2) // the other tasks still ran to the end
    // Evaluator: a trajectory broken after the ground truths were built
    // makes every task throw a NullPointerException of its own
    val small = Experiments.benchDb(nTrajs = 5)
    val ev = new Experiments.Evaluator(small, "data")
    val identity = SimpleDB(small.map(t => t.id -> Array.range(0, t.length)).toMap)
    small(0).points(1) = null
    val npe = intercept[NullPointerException](ev.evaluate(identity))
    assert(npe.getCause === null)
  }

  test("the evaluator builds and scores a DB that holds a zero-point trajectory") {
    val bench = Experiments.benchDb(nTrajs = 5)
    // the empty trajectory at every position, so that the sampled kNN and
    // similarity queries fall on it in some of the DBs
    for (at <- 0 to bench.length) {
      val withEmpty = bench.patch(at, Seq(Traj(999, Array.empty)), 0)
      val identity = SimpleDB(withEmpty.map(t => t.id -> Array.range(0, t.length)).toMap)
      val ev = new Experiments.Evaluator(withEmpty, "data")
      for (s <- Seq(identity, firstLast(withEmpty))) {
        val f = ev.evaluate(s)
        for (v <- Seq(f.range, f.knnEdr, f.knnEmbed, f.similarity, f.clustering))
          assert(v >= 0.0 && v <= 1.0, s"at=$at ${f.fmt}")
      }
    }
  }

  test("degenerate inputs: every F1 in [0, 1] and the same bits from a second evaluate") {
    // trajectory shapes: 1 or 2 points; one point repeated; equal t; on the
    // line y = x / 2; at (1000, 1000) throughout; NaN or infinite x or y; or
    // plain random. A DB of one shape only is collinear or has zero extent.
    val shapes = Seq("one", "two", "identical", "equal t", "collinear", "zero extent", "NaN", "+inf",
      "-inf", "random")
    val cases = for {
      seed <- Gen.choose(0L, Long.MaxValue)
      kinds <- Gen.choose(1, 5).flatMap(Gen.listOfN(_, Gen.oneOf(shapes)))
      workload <- Gen.oneOf("data", "gaussian")
    } yield {
      val rng = new java.util.Random(seed)
      def coord(): Double = rng.nextInt(4000).toDouble
      val db = kinds.zipWithIndex.map { case (kind, i) =>
        val len = kind match { case "one" => 1; case "two" => 2; case _ => 3 + rng.nextInt(40) }
        val p0 = Point(coord(), coord(), 0)
        val pts = Array.tabulate(len) { j =>
          val p = Point(coord(), coord(), j.toDouble)
          kind match {
            case "identical"   => p0
            case "equal t"     => p.copy(t = 5)
            case "collinear"   => Point(p0.x + 10 * j, (p0.x + 10 * j) / 2, j)
            case "zero extent" => Point(1000, 1000, j)
            case "NaN"         => if (j % 3 == 1) p.copy(x = Double.NaN) else p
            case "+inf"        => if (j % 4 == 2) p.copy(y = Double.PositiveInfinity) else p
            case "-inf"        => if (j % 5 == 0) p.copy(x = Double.NegativeInfinity) else p
            case _             => p
          }
        }
        Traj(i.toLong, pts)
      }.toArray
      (db, workload, kinds)
    }
    forAllN(cases, 60) { case (db, workload, kinds) =>
      val ev = new Experiments.Evaluator(db, workload)
      val identity = SimpleDB(db.map(t => t.id -> Array.range(0, t.length)).toMap)
      val everyOther = SimpleDB(db.map(t =>
        t.id -> Array.range(0, t.length).filter(i => i % 2 == 0 || i == t.length - 1)).toMap)
      for ((name, s) <- Seq("identity" -> identity, "endpoints" -> firstLast(db), "every other" -> everyOther)) {
        val clue = s"$kinds $workload $name"
        val f = ev.evaluate(s)
        for (v <- Seq(f.range, f.knnEdr, f.knnEmbed, f.similarity, f.clustering))
          assert(v >= 0.0 && v <= 1.0, s"$clue ${f.fmt}")
        assert(f1Bits(ev.evaluate(s)) === f1Bits(f), clue)
      }
    }
  }

  test("the evaluator rejects an empty DB and a falling t, naming the trajectory") {
    val empty = intercept[IllegalArgumentException](new Experiments.Evaluator(Array.empty, "data"))
    assert(empty.getMessage.contains("at least one trajectory"))
    // trajectory `bad` has t falling at index `at`, or at every index
    val cases = for {
      lens <- Gen.choose(1, 4).flatMap(Gen.listOfN(_, Gen.choose(2, 30)))
      bad <- Gen.choose(0, lens.length - 1)
      at <- Gen.choose(1, lens(bad) - 1)
      everywhere <- Gen.oneOf(false, true)
    } yield {
      val db = lens.zipWithIndex.map { case (len, i) =>
        Traj(100L + i, Array.tabulate(len) { j =>
          val t = if (i != bad) j else if (everywhere) -j else if (j == at) at - 1.5 else j
          Point(10 * j, 20 * i, t)
        })
      }.toArray
      (db, bad, if (everywhere) 1 else at)
    }
    forAllN(cases, 40) { case (db, bad, at) =>
      val e = intercept[IllegalArgumentException](new Experiments.Evaluator(db, "data"))
      assert(e.getMessage.startsWith(s"trajectory ${100 + bad}: t falls at index $at "), e.getMessage)
    }
  }

  test("runRl4qdts returns the requested number of runs, each at the exact budget") {
    val agents = Training.makeAgents(Experiments.benchParams, seed = 5)
    val w = 2 * db.length + 10
    val runs = Experiments.runRl4qdts(db, w, agents, "data", runs = 3, seed = 17)
    assert(runs.size === 3)
    assert(runs.forall(_.totalPoints === w))
  }

  test("printTable renders all rows and columns") {
    val s = Experiments.printTable("t", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    assert(s.contains("| a  | bb |"))
    assert(s.contains("| 33 | 4  |"))
  }

  test("time measures wall time") {
    val (v, t) = Experiments.time { Thread.sleep(30); 42 }
    assert(v === 42 && t >= 0.025)
  }
}
