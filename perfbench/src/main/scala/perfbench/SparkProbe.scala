package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.Oracle
import repro.core.{Model, RL4QDTS, SimpleDB, Traj}
import repro.data.TrajGen
import repro.exp.Experiments
import repro.queries.{RangeQuery, Workload}

/** The Spark layer, measured in the traced run of `dense`: a relation of
  * 1,600 Geolife-like trajectories from `TrajGen.genDF` (default seed,
  * 444,632 rows), cached, simplified with `RL4QDTS.simplifySpark` (r = 1%,
  * nGroups = cores, the stored policy) and queried by 100 data-distribution
  * range queries with `RangeQuery.spark`, on `local[cores]`. One warm-up op,
  * then one op under a `SparkListener`; both are checked.
  *
  * It is not an end-to-end workload: on a 4-core Xeon VM the median
  * `simplifySpark` and `RangeQuery.spark` times of a 25 s run moved by
  * IQR/median 0.14–0.28 and 0.18–0.41 between runs (three sets of ten
  * seeds), beyond the largest bound a metric may have (0.25).
  */
object SparkProbe {

  val nTrajs = 1600
  val ratio = 0.01

  def session(cores: Int): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", "64")
      // as in the test suites: the range join then runs as a cartesian product
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()

  /** (qid -> trajectory ids) of a collected range-query result. */
  def byQuery(rows: Array[Row], n: Int): Array[Set[Long]] = {
    val out = Array.fill(n)(Set.newBuilder[Long])
    rows.foreach(r => out(r.getLong(0).toInt) += r.getLong(1))
    out.map(_.result())
  }

  /** Kept indices of a collected points relation. */
  def toSimpleDb(rows: Array[Row]): SimpleDB =
    SimpleDB(rows.groupBy(_.getLong(0)).map { case (id, rs) => id -> rs.map(_.getInt(1)).sorted })

  /** Σ over groups of max(2·T_g, round(r·n_g)): simplifySpark's row bound. */
  def rowBound(db: Array[Traj], nGroups: Int): Long =
    db.groupBy(t => math.floorMod(t.id, nGroups.toLong)).values.map { g =>
      math.max(2L * g.length, math.round(ratio * g.map(_.length.toLong).sum))
    }.sum

  def run(s: Settings, r: Report, nets: Policy.Nets): Unit = {
    val cores = Runtime.getRuntime.availableProcessors
    val spark = session(cores)
    try runIn(spark, cores, s, r, nets) finally spark.stop()
  }

  private def runIn(spark: SparkSession, cores: Int, s: Settings, r: Report,
                    nets: Policy.Nets): Unit = {
    val sc = spark.sparkContext
    val stats = new SparkStats
    sc.addSparkListener(stats)
    val df = TrajGen.genDF(spark, TrajGen.geolife, nTrajs).persist(StorageLevel.MEMORY_ONLY)
    df.count()
    val db = TrajGen.genLocal(TrajGen.geolife, nTrajs)
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    val queries = Workload.dataDist(db, 100, 2000.0, math.max(tmax - tmin, 1.0), 4000L + s.seed)
    val qdf = RangeQuery.queriesDF(spark, queries.toSeq).persist(StorageLevel.MEMORY_ONLY)
    qdf.count()
    val gt = queries.map(RangeQuery.inMemory(db, _))
    val bound = rowBound(db, cores)

    // op 0 warms up, op 1 is measured; both are timed ops of the run and
    // both are checked
    for (i <- 0 to 1) r.op {
      val simp = RL4QDTS.simplifySpark(df, ratio, nets.cube, nets.point, Experiments.benchParams,
        nGroups = cores, nQueries = 100, querySizeXY = 2000.0, seed = Dense.opSeed(s.seed, i))
        .persist(StorageLevel.MEMORY_ONLY)
      try {
        val (rows, ts) = Bench.time(stats.inGroup(sc, s"simplify-$i")(simp.count()))
        val rq = RangeQuery.spark(df, qdf)
        val (orig, tr) = Bench.time(stats.inGroup(sc, s"range-$i")(rq.collect()))
        r.ops += Map("simplify_spark_s" -> ts, "range_spark_s" -> tr, "rows" -> rows)
        val sdb = toSimpleDb(simp.select("traj_id", "idx").collect())
        val simpDb = sdb.materialise(db)
        val simpRes = byQuery(RangeQuery.spark(simp, qdf).collect(), queries.length)
        val ok = Seq(
          r.check("simplify_spark.row_bound", rows <= bound),
          Checks.simpleDb(r, "simplify_spark", db, sdb, bound.toInt),
          r.check("range_spark_equals_in_memory.original",
            byQuery(orig, queries.length).sameElements(gt)),
          r.check("range_spark_equals_in_memory.simplified",
            queries.indices.forall(q => simpRes(q) == RangeQuery.inMemory(simpDb, queries(q)))))
        if (i == 1) {
          val (tasks, shuffle, skew) = stats.summary("simplify-1")
          r.metric("spark.simplify.tasks", tasks)
          r.metric("spark.simplify.shuffle_mb", shuffle)
          r.metric("spark.simplify.task_skew", skew)
          val (rTasks, rShuffle, _) = stats.summary("range-1")
          r.metric("spark.range.tasks", rTasks)
          r.metric("spark.range.shuffle_mb", rShuffle)
          val (examined, matched) = SparkPlans.joinPairs(rq.queryExecution.executedPlan,
            Model.totalPoints(db), queries.length)
          r.metric("spark.range.pairs_examined", examined.toDouble)
          r.metric("spark.range.pairs_matched", matched.toDouble)
        }
        val duck = i == 0 || r.check("range_simplified_equals_duckdb", duckdbAgrees(simp, qdf))
        ok.forall(identity) && duck
      } finally simp.unpersist(true)
    }
  }

  /** The simplified relation's range results, recomputed by DuckDB. */
  private def duckdbAgrees(simp: DataFrame, qdf: DataFrame): Boolean = {
    def d(c: String) = s"CAST($c AS DOUBLE)"
    val sql = "SELECT DISTINCT CAST(q.qid AS BIGINT) AS qid, CAST(p.traj_id AS BIGINT) AS traj_id " +
      "FROM p JOIN q ON " + Seq("x", "y", "t").map(c =>
        s"${d("p." + c)} >= ${d("q." + c + "min")} AND ${d("p." + c)} <= ${d("q." + c + "max")}")
        .mkString(" AND ")
    // a mismatch throws, which fails the op
    Oracle.assertEquivalent(RangeQuery.spark(simp, qdf), sql, "p" -> simp, "q" -> qdf)
    true
  }
}
