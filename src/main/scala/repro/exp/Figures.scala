package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baselines.{Baselines, RltsPlus}
import repro.baselines.Baselines.NamedMethod
import repro.core.{Box, Model, RL4QDTS, SimpleDB, Traj, Training}
import repro.data.TrajGen
import repro.exp.Experiments.{Evaluator, TaskF1, envInt, time}
import repro.queries.{Quality, Workload}
import repro.traj.ErrorMeasures.Measure

/** The paper's tables and figures, each rendered as a table: one function per
  * experiment returns its table and the numbers the `bench` suites assert on.
  * The suites and the `jobs/` entrypoint `TableJob` both call these, sized by
  * the same `BENCH_*` variables.
  */
object Figures {

  /** A table of results; `print` writes it to stdout and returns its text. */
  final case class Table(title: String, header: Seq[String], rows: Seq[Seq[String]]) {
    def print(): String = Experiments.printTable(title, header, rows)
  }

  /** The experiments' shared inputs, each built on first use: the test-split
    * database, the trained RL4QDTS agents, the trained RLTS+ baselines and the
    * evaluators. One instance serves every experiment run in a JVM.
    */
  class Inputs {
    lazy val db: Array[Traj] = {
      val d = Experiments.benchDb()
      Console.err.println(s"[exp] db: ${d.length} trajectories, ${Model.totalPoints(d)} points")
      d
    }

    lazy val agents: Training.TrainedAgents = {
      val (a, t) = time(Experiments.trainAgents())
      Console.err.println(f"[exp] RL4QDTS training took $t%.1f s")
      a
    }

    lazy val rlts: Map[Measure, RltsPlus] = {
      val (r, t) = time(Experiments.trainRltsBaselines())
      Console.err.println(f"[exp] RLTS+ training took $t%.1f s")
      r
    }

    lazy val evalData: Evaluator = {
      val ev = new Evaluator(db, "data")
      Console.err.println(s"[exp] data-distribution evaluator: ${ev.gtSummary}")
      ev
    }

    lazy val evalGauss: Evaluator = {
      val ev = new Evaluator(db, "gaussian")
      Console.err.println(s"[exp] gaussian-distribution evaluator: ${ev.gtSummary}")
      ev
    }
  }

  /** A budgeted simplification of `db` to `w` points (Fig. 8's budget check). */
  final case class Run(db: Array[Traj], w: Int, s: SimpleDB)

  private def budget(db: Array[Traj], frac: Double): Int =
    math.max(2 * db.length + 10, (frac * Model.totalPoints(db)).toInt)

  private def meanF1(f1s: Seq[TaskF1]): TaskF1 = TaskF1(
    Quality.mean(f1s.map(_.range)), Quality.mean(f1s.map(_.knnEdr)),
    Quality.mean(f1s.map(_.knnEmbed)), Quality.mean(f1s.map(_.similarity)),
    Quality.mean(f1s.map(_.clustering)))

  private def f1Cells(f: TaskF1): Seq[String] =
    Seq(f"${f.range}%.3f", f"${f.knnEdr}%.3f", f"${f.knnEmbed}%.3f",
      f"${f.similarity}%.3f", f"${f.clustering}%.3f")

  private val f1Header = Seq("range", "kNN-EDR", "kNN-emb", "similarity", "clustering")

  private def pct(b: Double): String = f"${b * 100}%.2f%%"

  // ---------------- Table I ----------------

  /** Table I with each profile's Spark-computed statistics. */
  final case class TableI(table: Table, stats: Map[String, TrajGen.Stats])

  // paper's Table I rows: (name, #trajs, total points, pts/traj, sampling, avg seg len)
  private val tableIPaper = Seq(
    ("Geolife", 17621L, 24876978L, 1412.0, "1s~5s", 9.96),
    ("T-Drive", 10359L, 17740902L, 1713.0, "177s", 623.0),
    ("Chengdu", 179756L, 32151865L, 178.0, "2s~4s", 25.0),
    ("OSM", 513380L, 2913478785L, 5675.0, "53.5s", 180.0))

  private val tableIProfiles = Seq("geolife", "tdrive", "chengdu", "osm")
  private val tableISizes = Map("geolife" -> 300, "tdrive" -> 200, "chengdu" -> 800, "osm" -> 200)

  /** Table I — statistics of the four synthetic stand-in profiles (generated
    * with Spark, aggregated with Spark SQL window functions) next to the
    * paper's numbers for its real datasets.
    */
  def table1(spark: SparkSession): TableI = {
    val stats = tableIProfiles.map { name =>
      val df = TrajGen.genDF(spark, TrajGen.profiles(name), tableISizes(name), seed = 42).cache()
      val s = TrajGen.stats(df)
      df.unpersist()
      name -> s
    }
    val rows = stats.zip(tableIPaper).map {
      case ((_, s), (pName, pTr, pPts, pAvg, pSamp, pSeg)) =>
        Seq(pName,
          s"$pTr / ${s.nTrajs}",
          s"$pPts / ${s.totalPoints}",
          f"$pAvg%.0f / ${s.avgPtsPerTraj}%.0f",
          f"$pSamp / ${s.avgSamplingSec}%.1fs",
          f"$pSeg%.1f / ${s.avgSegmentMeters}%.1f")
    }
    TableI(Table("Table I — dataset statistics (paper / repro)",
      Seq("dataset", "#trajs", "total pts", "pts/traj", "sampling", "seg len (m)"), rows),
      stats.toMap)
  }

  // ---------------- Table II ----------------

  /** Table II with each variant's (name, mean range F1, its std, time per run). */
  final case class TableII(table: Table, measured: Seq[(String, Double, Double, Double)])

  private val tableIIPaper = Seq(
    ("RL4QDTS", 0.733, 0.018, 61.11),
    ("w/o Agent-Cube", 0.673, 0.023, 50.32),
    ("w/o Agent-Point", 0.716, 0.021, 59.31),
    ("w/o Agent-Cube and Agent-Point", 0.641, 0.023, 48.18))

  private val variants = Seq(
    ("RL4QDTS", RL4QDTS.Variant(useCube = true, usePoint = true)),
    ("w/o Agent-Cube", RL4QDTS.Variant(useCube = false, usePoint = true)),
    ("w/o Agent-Point", RL4QDTS.Variant(useCube = true, usePoint = false)),
    ("w/o Agent-Cube and Agent-Point", RL4QDTS.Variant(useCube = false, usePoint = false)))

  /** Table II — the RL4QDTS ablation at W = 0.25%N (`BENCH_ABLATION_RUNS`
    * runs per variant). Evaluated under the Gaussian workload, where
    * query-aware and data-distribution cube sampling genuinely differ — under
    * the data workload the synthetic queries coincide with the data density
    * and the contrast collapses at repro scale (see EXPERIMENTS.md).
    */
  def table2(in: Inputs): TableII = {
    val db = in.db
    val ev = in.evalGauss
    val agents = in.agents // trained before any variant is timed
    val w = budget(db, 0.0025)
    val runs = envInt("BENCH_ABLATION_RUNS", 5)
    val measured = variants.map { case (name, variant) =>
      val (sims, t) = time(
        Experiments.runRl4qdts(db, w, agents, "gaussian", runs, seed = 4242, variant = variant))
      val f1s = sims.map(ev.rangeF1)
      (name, Quality.mean(f1s), Quality.stddev(f1s), t / runs)
    }
    val rows = tableIIPaper.zip(measured).map { case ((n, pf, ps, pt), (_, mf, ms, mt)) =>
      Seq(n, f"$pf%.3f ± $ps%.3f", f"$mf%.3f ± $ms%.3f", f"$pt%.2f", f"$mt%.2f")
    }
    TableII(Table("Table II — ablation (range-query F1, Gaussian workload)",
      Seq("variant", "paper F1", "repro F1", "paper time (s)", "repro time (s)"), rows),
      measured)
  }

  // ---------------- Fig. 3 ----------------

  /** Fig. 3 with every baseline's F1 and RL4QDTS's mean F1 over its runs. */
  final case class Fig3(table: Table, baseRows: Seq[(String, TaskF1)], rl: TaskF1)

  /** Fig. 3 — all 25 EDTS baseline adaptations and RL4QDTS (`BENCH_RL_RUNS`
    * runs) on the five query tasks at W = 0.25%N, data distribution.
    */
  def fig3(in: Inputs): Fig3 = {
    val db = in.db
    val ev = in.evalData
    val w = budget(db, 0.0025)
    val baseRows = Baselines.all(in.rlts).map { m =>
      val (s, tSimp) = time(m.simplify(db, w))
      val (f1, tEval) = time(ev.evaluate(s))
      Console.err.println(f"[fig3] ${m.name}%-22s ${f1.fmt} (simplify $tSimp%.1fs eval $tEval%.1fs)")
      (m.name, f1)
    }
    val rlRuns = envInt("BENCH_RL_RUNS", 3)
    val (rlSims, tRl) = time(
      Experiments.runRl4qdts(db, w, in.agents, "data", rlRuns, seed = 31337))
    val rl = meanF1(rlSims.map(ev.evaluate))
    Console.err.println(f"[fig3] RL4QDTS ${rl.fmt} (${tRl / rlRuns}%.1fs/run)")
    val rows = (baseRows :+ ("RL4QDTS", rl)).map { case (n, f) => n +: f1Cells(f) }
    Fig3(Table(s"Fig 3 (as table) — F1 at W=0.25%N, data distribution (${db.length} trajs)",
      "method" +: f1Header, rows), baseRows, rl)
  }

  // ---------------- Fig. 4 ----------------

  /** The storage budgets of the Fig. 4 sweep, as fractions of N. */
  val budgets: Seq[Double] = Seq(0.0025, 0.005, 0.01, 0.02)

  /** The baseline catalog's methods named `names`, in that order. */
  private def catalog(names: Seq[String], rlts: Map[Measure, RltsPlus] = Map.empty): Seq[NamedMethod] = {
    val byName = Baselines.all(rlts).map(m => m.name -> m).toMap
    names.map(byName)
  }

  // the paper's data-distribution skyline (Section V-B(1))
  private val dataSkyline =
    Seq("Top-Down(E,PED)", "Top-Down(W,PED)", "Bottom-Up(W,PED)", "Bottom-Up(E,DAD)", "Bottom-Up(E,SED)")

  // the paper's Gaussian skyline (Section V-B(1))
  private val gaussSkyline = Seq("Bottom-Up(E,SED)", "RLTS+(E,SED)", "Bottom-Up(E,PED)", "Top-Down(E,PED)")

  /** Fig. 4 (a–e) with RL4QDTS's F1 and the best skyline range F1 per budget. */
  final case class Fig4Data(table: Table, rlByBudget: Map[Double, TaskF1],
                            bestBaseRange: Map[Double, Double])

  /** Fig. 4 (a–e analogue) — RL4QDTS vs the data-distribution skyline at
    * every budget, five tasks, data distribution.
    */
  def fig4Data(in: Inputs): Fig4Data = {
    val db = in.db
    val ev = in.evalData
    val rows = Seq.newBuilder[Seq[String]]
    val rlByBudget = Map.newBuilder[Double, TaskF1]
    val bestBaseRange = Map.newBuilder[Double, Double]
    for (b <- budgets) {
      val w = budget(db, b)
      val base = catalog(dataSkyline).map { m =>
        val f1 = ev.evaluate(m.simplify(db, w))
        rows += (pct(b) +: m.name +: f1Cells(f1))
        f1.range
      }
      bestBaseRange += b -> base.max
      val sims = Experiments.runRl4qdts(db, w, in.agents, "data",
        envInt("BENCH_RL_RUNS", 3), seed = 5150 + (b * 1000).toInt)
      val rl = meanF1(sims.map(ev.evaluate))
      rlByBudget += b -> rl
      rows += (pct(b) +: "RL4QDTS" +: f1Cells(rl))
    }
    Fig4Data(Table("Fig 4 (as table) — budget sweep on Geolife-like, data distribution",
      "budget" +: "method" +: f1Header, rows.result()), rlByBudget.result(), bestBaseRange.result())
  }

  /** Fig. 4 (f–j) with, per budget, (budget, RL4QDTS range F1, skyline range F1s). */
  final case class Fig4Gauss(table: Table, byBudget: Seq[(Double, Double, Seq[Double])])

  /** Fig. 4 (f–j analogue) — range-query F1 of RL4QDTS vs the paper's
    * Gaussian skyline at every budget, Gaussian distribution.
    */
  def fig4Gauss(in: Inputs): Fig4Gauss = {
    val db = in.db
    val ev = in.evalGauss
    val skyline = catalog(gaussSkyline, in.rlts)
    val rows = Seq.newBuilder[Seq[String]]
    val byBudget = budgets.map { b =>
      val w = budget(db, b)
      val base = skyline.map { m =>
        val r = ev.rangeF1(m.simplify(db, w))
        rows += Seq(pct(b), m.name, f"$r%.3f")
        r
      }
      val sims = Experiments.runRl4qdts(db, w, in.agents, "gaussian",
        envInt("BENCH_RL_RUNS", 3), seed = 616 + (b * 1000).toInt)
      val rl = Quality.mean(sims.map(ev.rangeF1))
      rows += Seq(pct(b), "RL4QDTS", f"$rl%.3f")
      (b, rl, base)
    }
    Fig4Gauss(Table("Fig 4 (as table) — range-query budget sweep, Gaussian distribution",
      Seq("budget", "method", "range F1"), rows.result()), byBudget)
  }

  // ---------------- Fig. 8 ----------------

  private def timedMethods(agents: Training.TrainedAgents, workload: Array[Box]): Seq[NamedMethod] =
    catalog(Seq("Top-Down(E,PED)", "Top-Down(W,PED)", "Bottom-Up(E,SED)", "Bottom-Up(W,PED)")) :+
      NamedMethod("RL4QDTS", (d, w) => RL4QDTS.simplify(
        d, w, workload, agents.cubeNet, agents.pointNet,
        // density-adaptive S, as the paper scales S with database size
        Experiments.paramsFor(Model.totalPoints(d)), seed = 1))

  /** `simplify`'s result and the median time of 3 calls (one call's time
    * swings by half between runs).
    */
  private def medianTime(simplify: => SimpleDB): (SimpleDB, Double) = {
    val calls = Seq.fill(3)(time(simplify))
    (calls.head._1, calls.map(_._2).sorted.apply(1))
  }

  private def workloadOf(db: Array[Traj], seed: Long): Array[Box] =
    Workload.dataDist(db, 100, 2000, Workload.fullSpan(db), seed)

  /** Fig. 8(a) with each method's times in ascending N, and every run. */
  final case class Fig8a(table: Table, timesByMethod: Map[String, List[Double]], runs: Seq[Run])

  /** Fig. 8(a) — running time vs database size N at r = 2% on OSM-like
    * databases of 100–800 trajectories, times `BENCH_SCALE`.
    */
  def fig8a(in: Inputs): Fig8a = {
    val sizes = Seq(100, 200, 400, 800).map(n => n * envInt("BENCH_SCALE", 1))
    val rows = Seq.newBuilder[Seq[String]]
    val runs = Seq.newBuilder[Run]
    val timesByMethod = scala.collection.mutable.Map.empty[String, List[Double]].withDefaultValue(Nil)
    for (nTrajs <- sizes) {
      val db = TrajGen.genLocal(TrajGen.osm, nTrajs, seed = 777)
      val n = Model.totalPoints(db)
      val w = budget(db, 0.02)
      for (m <- timedMethods(in.agents, workloadOf(db, 778))) {
        val (s, t) = medianTime(m.simplify(db, w))
        runs += Run(db, w, s)
        timesByMethod(m.name) = timesByMethod(m.name) :+ t
        rows += Seq(s"$n", m.name, f"$t%.2f")
      }
    }
    Fig8a(Table("Fig 8(a) (as table) — time (s) vs N on OSM-like, r=2%",
      Seq("N (points)", "method", "time (s)"), rows.result()), timesByMethod.toMap, runs.result())
  }

  /** Fig. 8(b) with the time of each (method, budget), and every run. */
  final case class Fig8b(table: Table, t: Map[(String, Double), Double], runs: Seq[Run])

  /** Fig. 8(b) — running time vs budget W on the test-split database. */
  def fig8b(in: Inputs): Fig8b = {
    val db = in.db
    val wl = workloadOf(db, 881)
    val rows = Seq.newBuilder[Seq[String]]
    val runs = Seq.newBuilder[Run]
    val t = Map.newBuilder[(String, Double), Double]
    for (b <- budgets) {
      val w = budget(db, b)
      for (m <- timedMethods(in.agents, wl)) {
        val (s, dt) = medianTime(m.simplify(db, w))
        runs += Run(db, w, s)
        t += (m.name, b) -> dt
        rows += Seq(pct(b), m.name, f"$dt%.2f")
      }
    }
    Fig8b(Table("Fig 8(b) (as table) — time (s) vs W on Geolife-like",
      Seq("budget", "method", "time (s)"), rows.result()), t.result(), runs.result())
  }
}
