package repro.baselines

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}
import repro.core.{Model, ModelTestOps, Point, Traj}
import repro.data.TrajGen
import repro.traj.ErrorMeasures

/** Tests of the baseline catalog (the paper's 25 adaptations) and the
  * Spark-parallel E adaptation.
  */
class BaselinesSpec extends SparkSpec with PropSupport {

  private lazy val db = TrajGen.genLocal(TrajGen.chengdu, 8, 31)

  test("the catalog contains exactly the paper's 25 adaptations") {
    val rlts = Baselines.trainRlts(db.take(2), 0.4, episodes = 1)
    val names = Baselines.all(rlts).map(_.name)
    assert(names.length === 25)
    assert(names.count(_.startsWith("Top-Down")) === 8)
    assert(names.count(_.startsWith("Bottom-Up")) === 8)
    assert(names.count(_.startsWith("RLTS+")) === 8)
    assert(names.count(_.startsWith("Span-Search")) === 1)
    assert(names.distinct.length === 25)
    for (m <- ErrorMeasures.all; mode <- Seq("E", "W")) {
      assert(names.contains(s"Top-Down($mode,${m.name})"))
      assert(names.contains(s"Bottom-Up($mode,${m.name})"))
      assert(names.contains(s"RLTS+($mode,${m.name})"))
    }
  }

  test("without trained RLTS+ policies the catalog has the 17 static methods") {
    assert(Baselines.all(Map.empty).length === 17)
  }

  test("every catalog method produces a bounded valid simplification") {
    val rlts = Baselines.trainRlts(db.take(2), 0.4, episodes = 1)
    val n = Model.totalPoints(db)
    val w = (0.15 * n).toInt
    for (m <- Baselines.all(rlts)) {
      val s = m.simplify(db, w)
      // E adaptations may exceed W by rounding at most one point per trajectory
      assert(s.totalPoints <= w + db.length, m.name)
      for (tr <- db) {
        val kept = s.kept(tr.id)
        assert(kept.head === 0 && kept.last === tr.length - 1, s"${m.name} traj ${tr.id}")
        assert(kept.toSeq === kept.sorted.toSeq, m.name)
      }
    }
  }

  test("every catalog method keeps exactly the endpoints of 0-, 1- and 2-point trajectories") {
    val tiny = Array(Traj(1000, Array.empty), Traj(1001, Array(Point(0, 0, 0))),
      Traj(1002, Array(Point(0, 0, 0), Point(5, 5, 5))))
    val mixed = db.take(4) ++ tiny
    val rlts = Baselines.trainRlts(db.take(2), 0.4, episodes = 1)
    val n = Model.totalPoints(mixed).toInt
    for (m <- Baselines.all(rlts); w <- Seq(0, 2 * mixed.length + 5, n / 7, n)) {
      val s = m.simplify(mixed, w)
      s.materialise(mixed)
      for (tr <- tiny)
        assert(s.kept(tr.id).toSeq === Model.endpoints(tr.length).toSeq, s"${m.name} W=$w traj ${tr.id}")
    }
  }

  /** A trajectory of up to five pieces after its first point, one second
    * apart: a run of one repeated (x, y), a collinear stretch of equal integer
    * steps to the right, or a return to the point 2 to 8 samples back (the
    * first point, if there are fewer), so equal points can also be far apart.
    */
  private val genTieTraj: Gen[Array[Point]] = for {
    nPieces <- Gen.choose(0, 5)
    pieces <- Gen.listOfN(nPieces, Gen.oneOf(
      Gen.choose(1, 6).map(k => (0, 0, k)),
      for { dx <- Gen.choose(1, 3); dy <- Gen.choose(-2, 2); k <- Gen.choose(1, 8) } yield (dx, dy, k),
      Gen.choose(2, 8).map(back => (0, 0, -back))))
  } yield {
    val xy = scala.collection.mutable.ArrayBuffer((0, 0))
    for ((dx, dy, k) <- pieces) {
      if (k < 0) xy += xy(math.max(0, xy.length + k))
      else for (_ <- 0 until k) xy += ((xy.last._1 + dx, xy.last._2 + dy))
    }
    xy.zipWithIndex.map { case ((x, y), i) => Point(x, y, i) }.toArray
  }

  test("property: every catalog method stays valid and repeatable on repeated and collinear points") {
    val catalog = Baselines.all(Baselines.trainRlts(db.take(2), 0.4, episodes = 1))
    val genDb = Gen.choose(1, 4).flatMap(Gen.listOfN(_, genTieTraj))
      .map(_.zipWithIndex.map { case (pts, i) => Traj(i, pts) }.toArray)
    forAllN(genDb, 40) { tdb =>
      val n = Model.totalPoints(tdb).toInt
      val e = tdb.map(tr => math.min(tr.length, 2)).sum
      for (m <- catalog; w <- Seq(0, 2 * tdb.length, n / 7, n)) {
        val s = m.simplify(tdb, w)
        val ctx = s"${m.name} W=$w on " +
          tdb.map(_.points.map(p => s"${p.x},${p.y}").mkString(" ")).mkString(" | ")
        val r = w.toDouble / n
        for (tr <- tdb) {
          val kept = s.kept(tr.id)
          assert(Model.endpoints(tr.length).forall(kept.contains), ctx)
          assert(kept.toSeq === kept.distinct.sorted.toSeq, ctx)
          assert(kept.forall(i => i >= 0 && i < tr.length), ctx)
          if (m.name.contains("(E,"))
            assert(kept.length >= math.min(tr.length, 2) &&
              kept.length <= math.max(2, (r * tr.length).toInt), ctx)
        }
        if (m.name.contains("(W,")) assert(s.totalPoints === math.min(math.max(w, e), n), ctx)
        val again = m.simplify(tdb, w)
        assert(tdb.forall(tr => again.kept(tr.id).toSeq === s.kept(tr.id).toSeq), ctx)
      }
    }
  }

  /** The pin DBs, 8 Chengdu-like and 4 Geolife-like trajectories, each with
    * its catalog and its own RLTS+ policies.
    */
  private lazy val pinDbs = Seq(("chengdu", 31L, 8), ("geolife", 21L, 4)).map { case (p, seed, nT) =>
    val pdb = TrajGen.genLocal(TrajGen.profiles(p), nT, seed)
    (p, seed) -> (pdb, Baselines.all(Baselines.trainRlts(pdb.take(2), 0.4, episodes = 1)))
  }.toMap

  test("every catalog method returns the pinned SimpleDBs") {
    val src = scala.io.Source.fromResource("repro/baselines/baseline_pins.txt")(scala.io.Codec.UTF8)
    val pins = try src.getLines().filterNot(_.startsWith("#")).toVector finally src.close()
    assert(pins.length === 100)
    for (line <- pins) {
      val Array(profile, dbSeed, w, name, kept) = line.split(" ")
      val (pdb, catalog) = pinDbs((profile, dbSeed.toLong))
      val s = catalog.find(_.name == name).get.simplify(pdb, w.toInt)
      assert(pdb.map(tr => s.kept(tr.id).mkString(",")).mkString(";") === kept, line.take(40))
    }
  }

  test("every E method simplifies each trajectory alone: a DB and its copy at 2W keep what the DB keeps at W") {
    for (((profile, _), (pdb, catalog)) <- pinDbs) {
      val n = Model.totalPoints(pdb)
      val copies = pdb.map(tr => Traj(tr.id + 1000, tr.points))
      for (frac <- Seq(0.02, 0.1, 0.3); m <- catalog if m.name.contains("(E,")) {
        val w = (frac * n).toInt
        assert((2 * w).toDouble / (2 * n) === w.toDouble / n) // the same r, bit for bit
        val once = m.simplify(pdb, w)
        val twice = m.simplify(pdb ++ copies, 2 * w)
        for ((tr, copy) <- pdb.zip(copies)) {
          val clue = s"${m.name} $profile W=$w traj ${tr.id}"
          assert(twice.kept(tr.id).toSeq === once.kept(tr.id).toSeq, clue)
          assert(twice.kept(copy.id).toSeq === once.kept(tr.id).toSeq, clue)
        }
      }
    }
  }

  test("simplifyESpark(topdown) equals the driver-side per-trajectory algorithm") {
    val df = Model.toDF(spark, db.toSeq)
    val out = Baselines.simplifyESpark(df, "topdown", ErrorMeasures.SED, 0.1)
    val viaSpark = ModelTestOps.collectTrajs(out)
    // same per-trajectory budget formula as simplifyESpark: max(2, r*|T|)
    val localM = db.map { tr =>
      val kept = TopDown.simplifyOne(ErrorMeasures.SED, tr, math.max(2, (0.1 * tr.length).toInt))
      repro.core.Traj(tr.id, kept.map(tr.points))
    }
    assert(viaSpark.length === localM.length)
    for ((a, b) <- viaSpark.zip(localM.sortBy(_.id)))
      assert(a.points.toSeq === b.points.toSeq, s"traj ${a.id}")
  }

  test("simplifyESpark(bottomup) keeps per-trajectory budgets") {
    val df = Model.toDF(spark, db.toSeq)
    val out = Baselines.simplifyESpark(df, "bottomup", ErrorMeasures.PED, 0.2)
    val counts = out.groupBy("traj_id").count().collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    for (tr <- db)
      assert(counts(tr.id) === math.max(2, (0.2 * tr.length).toInt).toLong)
  }

  test("simplifyESpark at r = W / N equals the catalog's E adaptation at W") {
    val df = Model.toDF(spark, db.toSeq).cache()
    val n = Model.totalPoints(db)
    val catalog = Baselines.all(Map.empty)
    for (frac <- Seq(0.1, 0.3); (method, adapt, m) <- ErrorMeasures.all.flatMap(m =>
           Seq(("topdown", "Top-Down", m), ("bottomup", "Bottom-Up", m))) :+
           (("spansearch", "Span-Search", ErrorMeasures.DAD))) {
      val w = (frac * n).toInt
      val name = s"$adapt(E,${m.name}) at W=$w"
      val local = catalog.find(_.name == s"$adapt(E,${m.name})").get.simplify(db, w)
      val viaSpark = Baselines.simplifyESpark(df, method, m, w.toDouble / n)
        .select("traj_id", "idx").collect()
        .groupBy(_.getLong(0)).map { case (id, rs) => id -> rs.map(_.getInt(1)).sorted.toSeq }
      assert(viaSpark === local.kept.map { case (id, kept) => id -> kept.toSeq }, name)
    }
    df.unpersist()
  }

  test("simplifyESpark(spansearch) requires DAD") {
    val df = Model.toDF(spark, db.take(2).toSeq)
    intercept[Exception] {
      Baselines.simplifyESpark(df, "spansearch", ErrorMeasures.SED, 0.2).collect()
    }
    val ok = Baselines.simplifyESpark(df, "spansearch", ErrorMeasures.DAD, 0.2)
    assert(ok.count() > 0)
  }

  test("simplifyESpark rejects unknown methods and bad ratios") {
    val df = Model.toDF(spark, db.take(1).toSeq)
    intercept[Exception] { Baselines.simplifyESpark(df, "magic", ErrorMeasures.SED, 0.2).collect() }
    intercept[IllegalArgumentException] { Baselines.simplifyESpark(df, "topdown", ErrorMeasures.SED, 0.0) }
    // no action needed: both fail at the call, before planning
    val e = intercept[IllegalArgumentException] { Baselines.simplifyESpark(df, "magic", ErrorMeasures.SED, 0.2) }
    assert(e.getMessage.contains("magic"))
    intercept[IllegalArgumentException] { Baselines.simplifyESpark(df, "spansearch", ErrorMeasures.SED, 0.2) }
  }

  test("simplified relation is a subset of the original (oracle-checked)") {
    val df = Model.toDF(spark, db.take(4).toSeq).cache()
    val out = Baselines.simplifyESpark(df, "topdown", ErrorMeasures.SED, 0.2).cache()
    // anti-join must be empty: every simplified point exists in the original
    val missing = out.join(df, Seq("traj_id", "idx", "x", "y", "t"), "left_anti")
    assert(missing.count() === 0)
    import org.apache.spark.sql.functions._
    import spark.implicits._
    val agg = out.groupBy($"traj_id" as "tid").agg(count(lit(1)) as "n")
    repro.Oracle.assertEquivalent(agg,
      "SELECT traj_id AS tid, count(*) AS n FROM simp GROUP BY traj_id",
      "simp" -> out)
    df.unpersist(); out.unpersist()
  }
}
