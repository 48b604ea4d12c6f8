package repro.data

import repro.SparkSpec
import repro.core.{Model, ModelTestOps}

/** Tests of the synthetic dataset generators standing in for the paper's
  * four real datasets (Table I substitution).
  */
class TrajGenSpec extends SparkSpec {

  test("genTraj is deterministic in (profile, seed, id)") {
    val a = TrajGen.genTraj(TrajGen.geolife, 42, 7)
    val b = TrajGen.genTraj(TrajGen.geolife, 42, 7)
    assert(a.points.toSeq === b.points.toSeq)
  }

  test("different ids give different trajectories") {
    val a = TrajGen.genTraj(TrajGen.geolife, 42, 1)
    val b = TrajGen.genTraj(TrajGen.geolife, 42, 2)
    assert(a.points.toSeq !== b.points.toSeq)
  }

  test("different seeds give different trajectories") {
    val a = TrajGen.genTraj(TrajGen.geolife, 1, 5)
    val b = TrajGen.genTraj(TrajGen.geolife, 2, 5)
    assert(a.points.toSeq !== b.points.toSeq)
  }

  test("timestamps are strictly increasing") {
    for (p <- TrajGen.profiles.values) {
      val tr = TrajGen.genTraj(p, 3, 0)
      assert(tr.points.iterator.sliding(2).forall(w => w(1).t > w(0).t), p.name)
    }
  }

  test("coordinates stay within the profile's area") {
    for (p <- TrajGen.profiles.values; tr <- TrajGen.genLocal(p, 5, 9)) {
      assert(tr.points.forall(q => q.x >= 0 && q.x <= p.areaMeters && q.y >= 0 && q.y <= p.areaMeters), p.name)
    }
  }

  test("genLocal produces the requested number of trajectories with ids 0..n-1") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 12, 5)
    assert(db.length === 12)
    assert(db.map(_.id).toSeq === (0 until 12).map(_.toLong))
  }

  test("genDF agrees with genLocal point-for-point") {
    val local = TrajGen.genLocal(TrajGen.chengdu, 6, 11)
    val viaSpark = ModelTestOps.collectTrajs(TrajGen.genDF(spark, TrajGen.chengdu, 6, 11))
    assert(viaSpark.length === local.length)
    for ((a, b) <- viaSpark.zip(local)) assert(a.points.toSeq === b.points.toSeq, s"traj ${a.id}")
  }

  test("mean points per trajectory is in the ballpark of the profile") {
    val p = TrajGen.geolife
    val db = TrajGen.genLocal(p, 60, 21)
    val avg = db.map(_.length).sum.toDouble / db.length
    assert(avg > p.avgLen * 0.5 && avg < p.avgLen * 2.0, s"avg=$avg")
  }

  test("mean sampling period matches the profile") {
    val p = TrajGen.tdrive
    val db = TrajGen.genLocal(p, 20, 31)
    val dts = db.flatMap(tr => tr.points.sliding(2).map(w => w(1).t - w(0).t))
    val mean = dts.sum / dts.length
    assert(math.abs(mean - p.samplingSec) < p.samplingSec * 0.2, s"mean=$mean vs ${p.samplingSec}")
  }

  test("mean segment length roughly tracks the profile's step (with stops)") {
    val p = TrajGen.tdrive
    val db = TrajGen.genLocal(p, 20, 31)
    val ls = db.flatMap(tr => tr.points.sliding(2).map(w => w(1).distTo(w(0))))
    val mean = ls.sum / ls.length
    // steps are U(0.3, 1.7)*step with 8% stops, so mean ≈ 0.92 * step
    assert(mean > p.stepMeters * 0.5 && mean < p.stepMeters * 1.3, s"mean=$mean")
  }

  test("profiles preserve the paper's dataset orderings") {
    // Chengdu has the most (and shortest) trajectories; OSM the longest traces
    assert(TrajGen.chengdu.nTrajs > TrajGen.geolife.nTrajs)
    assert(TrajGen.chengdu.avgLen < TrajGen.geolife.avgLen)
    assert(TrajGen.osm.avgLen > TrajGen.geolife.avgLen)
    // T-Drive has the sparsest sampling and longest steps among the city sets
    assert(TrajGen.tdrive.samplingSec > TrajGen.geolife.samplingSec)
    assert(TrajGen.tdrive.stepMeters > TrajGen.geolife.stepMeters)
  }

  test("stats computes Table I columns correctly (oracle-checked totals)") {
    val df = TrajGen.genDF(spark, TrajGen.chengdu, 8, 3).cache()
    val s = TrajGen.stats(df)
    assert(s.nTrajs === 8)
    assert(s.totalPoints === df.count())
    assert(math.abs(s.avgPtsPerTraj - s.totalPoints.toDouble / 8) < 1e-9)
    assert(s.avgSamplingSec > 0 && s.avgSegmentMeters > 0)
    // oracle: total counts per trajectory
    import org.apache.spark.sql.functions._
    import spark.implicits._
    val agg = df.groupBy($"traj_id" as "tid").agg(count(lit(1)) as "n")
    repro.Oracle.assertEquivalent(agg,
      "SELECT traj_id AS tid, count(*) AS n FROM pts GROUP BY traj_id",
      "pts" -> df)
    df.unpersist()
  }

  test("stats sampling rate agrees with a driver-side computation") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 8, 3)
    val df = TrajGen.genDF(spark, TrajGen.chengdu, 8, 3)
    val s = TrajGen.stats(df)
    val dts = db.flatMap(tr => tr.points.sliding(2).map(w => w(1).t - w(0).t))
    val mean = dts.sum / dts.length
    assert(math.abs(s.avgSamplingSec - mean) < 1e-6)
  }
}
