package bench

import repro.SparkSpec
import repro.data.TrajGen
import repro.exp.Figures

/** Table I — dataset statistics. The paper reports the statistics of its four
  * real datasets; we report the statistics of the synthetic stand-in profiles
  * (generated with Spark, aggregated with Spark SQL window functions) next to
  * the paper's numbers. The repro preserves the *relative* structure: per-
  * dataset ordering of trajectory counts, lengths, sampling rates and segment
  * lengths (absolute counts are scaled down ~100x; see DESIGN.md).
  */
class TableIDatasetStatsBench extends SparkSpec {

  test("Table I: generated dataset statistics vs paper") {
    val Figures.TableI(table, stats) = Figures.table1(spark)
    BenchShared.record(table.print())

    // shape assertions: orderings of the paper's Table I hold in the repro
    assert(stats("chengdu").avgPtsPerTraj < stats("geolife").avgPtsPerTraj)
    assert(stats("osm").avgPtsPerTraj > stats("geolife").avgPtsPerTraj)
    assert(stats("tdrive").avgSamplingSec > stats("geolife").avgSamplingSec)
    assert(stats("tdrive").avgSegmentMeters > stats("chengdu").avgSegmentMeters)
    assert(stats("geolife").avgSegmentMeters < stats("chengdu").avgSegmentMeters)
  }

  test("Table I: sampling-rate targets hit within 20%") {
    for ((name, profile) <- TrajGen.profiles) {
      val s = TrajGen.stats(TrajGen.genDF(spark, profile, 50, 7))
      assert(math.abs(s.avgSamplingSec - profile.samplingSec) < profile.samplingSec * 0.2,
        s"$name sampling ${s.avgSamplingSec} vs ${profile.samplingSec}")
    }
  }

  test("Table I: aggregates match the DuckDB oracle") {
    val df = TrajGen.genDF(spark, TrajGen.profiles("chengdu"), 60, 42).cache()
    import org.apache.spark.sql.functions._
    import spark.implicits._
    val agg = df.groupBy($"traj_id" as "tid").agg(count(lit(1)) as "n")
    repro.Oracle.assertEquivalent(agg,
      "SELECT traj_id AS tid, count(*) AS n FROM pts GROUP BY traj_id",
      "pts" -> df)
    df.unpersist()
  }
}
