package repro.exp

import repro.Par
import repro.core._
import repro.data.TrajGen
import repro.baselines.{Baselines, RltsPlus}
import repro.index.Octree
import repro.queries._
import repro.traj.ErrorMeasures.Measure

/** Shared experiment harness: the bench database, training and evaluation
  * that `Figures` (the paper's tables, run by the `bench` suites and the
  * `jobs/` entrypoint `TableJob`) builds on.
  *
  * Scale: the paper benchmarks on ~1.5M-point databases; the repro default is
  * a ~110k-point Geolife-like database (override with env BENCH_TRAJS). The
  * temporal span is compressed to 6h so trajectories co-occur in time (the
  * paper's taxi datasets are temporally dense), which keeps kNN/similarity/
  * clustering queries non-trivial.
  */
object Experiments {

  def envInt(name: String, dflt: Int): Int = sys.env.get(name).map(_.toInt).getOrElse(dflt)

  /** Geolife-like bench profile: full-length trajectories (1412 points as in
    * Table I) with near-persistent headings (real trips are road-directed, not
    * diffusive), giving multi-km spatial extents — long relative to the 2 km
    * query boxes, the regime in which simplification actually costs query
    * recall — and a compressed span (see scaladoc).
    */
  val benchProfile: TrajGen.Profile =
    TrajGen.geolife.copy(avgLen = 1412, spanSec = 6 * 3600.0, turnSigma = 0.1)

  /** S=3 at repro scale: stop-only quality falls with cube depth (the cube
    * partition exists for efficiency), and from level 3 an adaptive descent
    * toward query-concentrated children genuinely improves F1 — the regime in
    * which Agent-Cube has something to learn, mirroring the paper's S=9/E=12
    * at 1.5M points.
    */
  val benchParams: QdtsParams = QdtsParams(startLevel = 3, maxLevel = 8, k = 2, delta = 50, leafCap = 32)

  /** Density-adaptive start level: the paper sets S so that start cubes do not
    * hold excessive numbers of points (S=9 at 1.5M points); this picks S so a
    * start cube holds ~2k points (S=3 at the 135k-point bench database) and is
    * used by the scalability sweep where N varies.
    */
  def paramsFor(nPoints: Long): QdtsParams = {
    val extra = math.ceil(math.log(nPoints / 150000.0) / math.log(8.0)).toInt
    val s = 3 + math.max(0, extra)
    benchParams.copy(startLevel = math.min(s, benchParams.maxLevel - 1))
  }

  /** Test-split database (seed disjoint from every training seed). */
  def benchDb(nTrajs: Int = envInt("BENCH_TRAJS", 100)): Array[Traj] =
    TrajGen.genLocal(benchProfile, nTrajs, 123456L)

  /** The RL4QDTS training configuration of every experiment: few small
    * databases, a scaled-down analogue of the paper's 12 x 500-trajectory
    * training setup.
    */
  val trainConfig: Training.TrainConfig = Training.TrainConfig(
    profile = benchProfile,
    nDbs = envInt("BENCH_TRAIN_DBS", 12),             // paper: 12 databases
    trajsPerDb = envInt("BENCH_TRAIN_TRAJS", 50),     // paper: 500 (4000 for Chengdu)
    episodesPerDb = envInt("BENCH_TRAIN_EPISODES", 10), // paper: 5
    budgetFrac = 0.01,
    nQueries = 100,
    querySizeXY = 2000.0,
    workloadKind = "data",
    params = benchParams,
    trainStepsPerWindow = 16,
    seed = 99)

  /** Train RL4QDTS agents with `trainConfig`. */
  def trainAgents(): Training.TrainedAgents = Training.train(trainConfig)

  /** Train the RLTS+ baselines (one policy per measure) on a training split. */
  def trainRltsBaselines(): Map[Measure, RltsPlus] = {
    val trainDb = TrajGen.genLocal(benchProfile, envInt("BENCH_RLTS_TRAJS", 12), 555)
    Baselines.trainRlts(trainDb, budgetFrac = 0.05, episodes = 1)
  }

  /** Per-task F1 of one simplified database against the original. */
  final case class TaskF1(range: Double, knnEdr: Double, knnEmbed: Double,
                          similarity: Double, clustering: Double) {
    def fmt: String = f"range=$range%.3f knnEDR=$knnEdr%.3f knnEmb=$knnEmbed%.3f " +
      f"sim=$similarity%.3f clus=$clustering%.3f"
  }

  /** Fixed query workloads + their ground truths on the original database;
    * `evaluate` scores any simplified database against them (Section III-B
    * quality measures). Built once per (db, distribution) and reused across
    * methods so every method faces identical queries.
    */
  final class Evaluator(val db: Array[Traj], workloadKind: String) {

    // one fixed query set: its seed, the query counts per task and the
    // trajectories that are clustered
    private val seed = 2024L
    private val nRange = 100; private val nKnn = 8; private val nSim = 10
    private val clusterTrajs = 150

    // queries are drawn from `db`, and a query's own window runs from its
    // first to its last t
    require(db.nonEmpty, "the evaluator needs at least one trajectory")
    for (tr <- db; i <- 1 until tr.length if !(tr.points(i).t >= tr.points(i - 1).t))
      throw new IllegalArgumentException(
        s"trajectory ${tr.id}: t falls at index $i (${tr.points(i - 1).t} then ${tr.points(i).t})")

    private val span = Workload.fullSpan(db)

    /** A query trajectory's own time window. A zero-point trajectory has
      * none; it gets the one-instant window [0, 0], which its empty query
      * answers the same way on every database.
      */
    private def ownWindow(q: Traj): (Double, Double) =
      if (q.points.isEmpty) (0.0, 0.0) else (q.points.head.t, q.points.last.t)

    // --- kNN and similarity queries: sampled query trajectories over their own windows ---
    private val rng = new java.util.Random(seed + 1)
    private val knnIdx: Array[Int] = Array.fill(nKnn)(rng.nextInt(db.length))
    private val knnWin: Array[(Double, Double)] = knnIdx.map(i => ownWindow(db(i)))
    private val simIdx: Array[Int] = Array.fill(nSim)(rng.nextInt(db.length))
    private val simWin: Array[(Double, Double)] = simIdx.map(i => ownWindow(db(i)))
    private val simDelta = 5000.0 // paper: 5 km threshold

    /** Every kNN query's 3 nearest trajectories of `on` under `sim`. */
    private def knnResults(on: Array[Traj], sim: KnnQuery.Similarity): Array[Seq[Long]] =
      knnIdx.zip(knnWin).map { case (i, (ts, te)) => KnnQuery.knn(on, db(i), ts, te, 3, sim) }

    /** Every similarity query's answer on `on`. */
    private def similar(on: Array[Traj]): Array[Set[Long]] =
      simIdx.zip(simWin).map { case (i, (ts, te)) => SimilarityQuery.similar(on, db(i), ts, te, simDelta) }

    // --- clustering (TRACLUS) on a fixed subset ---
    private val cluIds: Set[Long] = db.take(clusterTrajs).map(_.id).toSet
    private val cluTol = 100.0; private val cluEps = 1500.0; private val cluMin = 3
    private def clusterPairs(on: Array[Traj]): Set[(Long, Long)] =
      Traclus.clusterPairs(on.filter(t => cluIds(t.id)), cluTol, cluEps, cluMin)

    // --- range queries (paper: 2km x 2km x 7 days ~= the whole span) ---
    // rejection-sample to non-empty ground truths: data-distribution queries
    // are non-empty by construction, and empty-result queries score F1=1 for
    // every method, only diluting the measure. Each raw query is answered
    // once, from an octree over `db`, with the same result as
    // `RangeQuery.inMemory`; its hits give both the filter and the ground truth.
    // The octree is built as one task: this runs beside four other ground
    // truths, and its own tasks made the second and third set-ups of a
    // fresh JVM slower (perfbench `setup_s` +17 %)
    private def rangeSelection(): Array[(Box, Set[Long])] = {
      val index = Par.inCaller(new Octree(db, benchParams.maxLevel, benchParams.leafCap))
      val raw = Workload.generate(workloadKind, db, nRange * 4, 2000.0, span, seed).map { q =>
        val hit = index.trajsIn(q)
        (q, db.indices.iterator.filter(hit).map(db(_).id).toSet)
      }
      val nonEmpty = raw.filter(_._2.nonEmpty)
      (if (nonEmpty.length >= nRange) nonEmpty else raw).take(nRange)
    }

    // the ground truths, as concurrent tasks once every query is drawn
    private val (rangeSel, knnGtEdr, knnGtEmb, simGt, cluGt) = {
      var range: Array[(Box, Set[Long])] = null
      var edr, emb: Array[Seq[Long]] = null
      var sim: Array[Set[Long]] = null
      var clu: Set[(Long, Long)] = null
      Par.all(Seq(() => edr = knnResults(db, KnnQuery.EDR), () => range = rangeSelection(),
        () => clu = clusterPairs(db), () => emb = knnResults(db, KnnQuery.Embed), () => sim = similar(db)))
      (range, edr, emb, sim, clu)
    }
    val rangeQs: Array[Box] = rangeSel.map(_._1)
    private val rangeGt: Array[Set[Long]] = rangeSel.map(_._2)

    /** Number of non-trivial ground-truth results (bench sanity reporting). */
    def gtSummary: String =
      s"rangeGT(nonempty)=${rangeGt.count(_.nonEmpty)}/$nRange " +
        s"simGT(nonempty)=${simGt.count(_.nonEmpty)}/$nSim clusterPairsGT=${cluGt.size}"

    /** Mean range-query F1 of the materialised database `simp`. */
    private def rangeScore(simp: Array[Traj]): Double =
      Quality.mean(rangeQs.indices.map(i =>
        Quality.f1(rangeGt(i), RangeQuery.inMemory(simp, rangeQs(i)))))

    /** Mean kNN F1 of `simp` under `sim` against the ground truth `gt`. */
    private def knnScore(simp: Array[Traj], sim: KnnQuery.Similarity, gt: Array[Seq[Long]]): Double = {
      val res = knnResults(simp, sim)
      Quality.mean(gt.indices.map(j => Quality.knnF1(gt(j), res(j))))
    }

    /** The five task F1s of `s`, scored as concurrent tasks, the longest first. */
    def evaluate(s: SimpleDB): TaskF1 = {
      val simp = s.materialise(db)
      val Seq(clu, kEdr, kEmb, range, sim) = Par.all(Seq(
        () => Quality.f1(cluGt, clusterPairs(simp)),
        () => knnScore(simp, KnnQuery.EDR, knnGtEdr),
        () => knnScore(simp, KnnQuery.Embed, knnGtEmb),
        () => rangeScore(simp),
        () => {
          val res = similar(simp)
          Quality.mean(simGt.indices.map(j => Quality.f1(simGt(j), res(j))))
        }))
      TaskF1(range, kEdr, kEmb, sim, clu)
    }

    /** Range-query-only evaluation (fast path for sweeps/ablations). */
    def rangeF1(s: SimpleDB): Double = rangeScore(s.materialise(db))
  }

  /** Run RL4QDTS with trained nets `runs` times on one env, run r with seed
    * `seed + 7919·r` (the paper reports the mean and standard deviation over
    * runs because of the random start-cube sampling); convenience for benches.
    */
  def runRl4qdts(db: Array[Traj], w: Int, agents: Training.TrainedAgents,
                 workloadKind: String, runs: Int, seed: Long,
                 variant: RL4QDTS.Variant = RL4QDTS.Variant()): Seq[SimpleDB] = {
    // inference-time synthetic workload (not the evaluation queries!)
    val wl = Workload.generate(workloadKind, db, 100, 2000.0, Workload.fullSpan(db), seed + 1)
    val env = new QdtsEnv(db, wl, benchParams)
    val (cube, point) = (agents.cubeNet, agents.pointNet)
    (0 until runs).map(r => RL4QDTS.simplify(env, w, cube, point, seed + 7919L * r, variant))
  }

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Markdown-ish fixed-width table printer. */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmtRow(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    val sb = new StringBuilder
    sb.append(s"\n=== $title ===\n")
    sb.append(fmtRow(header)).append('\n').append(sep).append('\n')
    rows.foreach(r => sb.append(fmtRow(r)).append('\n'))
    val s = sb.toString
    println(s)
    s
  }
}
