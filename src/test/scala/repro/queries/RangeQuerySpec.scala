package repro.queries

import repro.SparkSpec
import repro.core.ModelTestOps.firstLast
import repro.core.{Box, Model, ModelTestOps, Point, Traj}
import repro.data.TrajGen

/** Range query: in-memory vs Spark SQL vs the DuckDB oracle. */
class RangeQuerySpec extends SparkSpec {

  private val db = Array(
    Traj(0, Array(Point(0, 0, 0), Point(5, 5, 10))),
    Traj(1, Array(Point(100, 100, 0), Point(105, 105, 10))),
    Traj(2, Array(Point(3, 3, 100), Point(4, 4, 110))))

  test("in-memory matches trajectories with any point in the box") {
    assert(RangeQuery.inMemory(db, Box(-1, 6, -1, 6, 0, 20)) === Set(0L))
  }

  test("in-memory temporal bound excludes out-of-window points") {
    assert(RangeQuery.inMemory(db, Box(-1, 6, -1, 6, 0, 200)) === Set(0L, 2L))
  }

  test("in-memory returns empty on a miss box") {
    assert(RangeQuery.inMemory(db, Box(1000, 1001, 1000, 1001, 0, 1)) === Set.empty[Long])
  }

  test("box bounds are inclusive") {
    assert(RangeQuery.inMemory(db, Box(5, 5, 5, 5, 10, 10)) === Set(0L))
  }

  test("Spark implementation agrees with in-memory on generated data") {
    val gdb = TrajGen.genLocal(TrajGen.chengdu, 15, 5)
    val df = Model.toDF(spark, gdb.toSeq).cache()
    val qs = Workload.dataDist(gdb, 10, 2000, 86400, seed = 3)
    val qdf = RangeQuery.queriesDF(spark, qs.toSeq)
    val res = RangeQuery.spark(df, qdf).collect()
      .map(r => (r.getLong(0), r.getLong(1)))
      .groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
    for ((q, qi) <- qs.zipWithIndex) {
      val mem = RangeQuery.inMemory(gdb, q)
      assert(res.getOrElse(qi.toLong, Set.empty) === mem, s"query $qi")
    }
    df.unpersist()
  }

  test("Spark implementation matches the DuckDB oracle") {
    val gdb = TrajGen.genLocal(TrajGen.chengdu, 10, 7)
    val df = Model.toDF(spark, gdb.toSeq).cache()
    val qs = Workload.dataDist(gdb, 6, 2000, 86400, seed = 11)
    val qdf = RangeQuery.queriesDF(spark, qs.toSeq).cache()
    val res = RangeQuery.spark(df, qdf)
    repro.Oracle.assertEquivalent(
      res,
      """SELECT q.qid AS qid, p.traj_id AS traj_id
        |FROM points p, queries q
        |WHERE CAST(p.x AS DOUBLE) >= CAST(q.xmin AS DOUBLE) AND CAST(p.x AS DOUBLE) <= CAST(q.xmax AS DOUBLE)
        |  AND CAST(p.y AS DOUBLE) >= CAST(q.ymin AS DOUBLE) AND CAST(p.y AS DOUBLE) <= CAST(q.ymax AS DOUBLE)
        |  AND CAST(p.t AS DOUBLE) >= CAST(q.tmin AS DOUBLE) AND CAST(p.t AS DOUBLE) <= CAST(q.tmax AS DOUBLE)
        |GROUP BY q.qid, p.traj_id""".stripMargin,
      "points" -> df, "queries" -> qdf)
    df.unpersist(); qdf.unpersist()
  }

  test("queriesDF assigns sequential qids") {
    val qdf = RangeQuery.queriesDF(spark, Seq(Box(0, 1, 0, 1, 0, 1), Box(1, 2, 1, 2, 1, 2)))
    assert(qdf.select("qid").collect().map(_.getLong(0)).sorted.toSeq === Seq(0L, 1L))
  }

  test("range query on a simplified relation returns a subset per query") {
    val gdb = TrajGen.genLocal(TrajGen.chengdu, 10, 13)
    val df = Model.toDF(spark, gdb.toSeq)
    val s = firstLast(gdb)
    val sdf = ModelTestOps.simplifyDF(df, s)
    val qs = Workload.dataDist(gdb, 8, 2000, 86400, seed = 17)
    for (q <- qs) {
      val orig = RangeQuery.inMemory(gdb, q)
      val simp = RangeQuery.inMemory(s.materialise(gdb), q)
      assert(simp.subsetOf(orig))
    }
    assert(sdf.count() === s.totalPoints)
  }
}
