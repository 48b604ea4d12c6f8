package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import repro.baselines.{BottomUp, TopDown}
import repro.core.{Box, Traj}
import repro.exp.Experiments
import repro.traj.ErrorMeasures.PED

/** One benchmark run: `--workload dense|train --seed n --seconds s
  * --trace 0|1`. Untraced runs report the end-to-end metrics, traced runs
  * the per-layer ones (see perfbench/METRICS.md); the last stdout line is
  * the result object.
  */
object Main {

  /** Set-ups per untraced run; set-up time is their median. */
  val setupReps = 5

  /** Leading ops whose quality figures are the run's quality metrics, so
    * those repeat exactly for a seed.
    */
  val qualityOps = 4

  /** Timed ops a run makes after its warm-up ops even when `--seconds` is
    * up, so that a slow machine still yields a median of several.
    */
  val minTimedOps = 4

  /** Per-layer metrics a workload does not exercise; they read 0. The Spark
    * layer is measured in `dense`'s traced run only (see `SparkProbe`).
    */
  def notExercised(workload: String, declared: Seq[String]): Seq[String] = workload match {
    case "dense" => Seq("op.validate_share", "op.dqn_update_share")
    case _       => declared.filter(_.startsWith("spark."))
  }

  /** (name, unit) of the metrics BENCHMARK.json declares for this kind of run. */
  def declared(spec: String, trace: Boolean): Seq[(String, String)] = {
    val json = Json.read(new String(Files.readAllBytes(Paths.get(spec)), UTF_8))
    val list = json.get(if (trace) "per_layer" else "end_to_end")
    (0 until list.size).map(i => list.get(i).get("name").asText -> list.get(i).get("unit").asText)
  }

  def parse(args: Array[String]): Settings = {
    val kv = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    Settings(kv("workload"), kv("seed").toLong, kv("seconds").toInt, kv("trace") == "1",
      kv("policy"), kv("detail"), kv("jfr-dir"), kv("spec"))
  }

  def main(args: Array[String]): Unit = {
    val s = parse(args)
    val r = new Report
    if (s.trace) r.detail("jfr_init_s") = Jfr.init(s.jfrDir)
    s.workload match {
      case "dense" => Dense.run(s, r)
      case "train" => TrainWorkload.run(s, r)
      case other   => throw new IllegalArgumentException(s"unknown workload $other")
    }
    val metrics = declared(s.spec, s.trace)
    if (s.trace) notExercised(s.workload, metrics.map(_._1)).foreach(n =>
      r.metrics.getOrElseUpdate(n, 0.0))
    val missing = metrics.map(_._1).filterNot(r.metrics.contains)
    // a failed op may leave its metrics unmeasured; the run is then reported
    // as not correct, with those metrics at 0
    require(missing.isEmpty || r.failed > 0, s"metrics not measured: ${missing.mkString(", ")}")
    missing.foreach(r.metric(_, 0.0))
    Files.write(Paths.get(s.detail), (r.detailJson(s, metrics) + "\n").getBytes(UTF_8))
    println(r.resultLine(metrics))
  }
}

/** Per-layer metrics shared by the workloads. */
object Layers {

  def opShares(r: Report, p: Jfr.Profile): Unit =
    Jfr.opCategories.foreach(c => r.metric(s"op.${c.name}_share", p.share(c.name)))

  def queryShares(r: Report, p: Jfr.Profile): Unit =
    Seq("knn_edr", "knn_emb", "similarity", "traclus").foreach(c =>
      r.metric(s"queries.${c}_share", p.share(c)))

  def index(r: Report, db: Array[Traj], wl: Array[Box]): Unit = {
    val (o, t) = Replay.indexBuild(db, wl, Experiments.benchParams)
    r.metric("index.build_s", t)
    r.metric("index.nodes", o.size.toDouble)
  }

  /** Fig. 8 reference points: Top-Down(W,PED) and Bottom-Up(W,PED) on the
    * same database and budget as the replay.
    */
  def reference(r: Report, db: Array[Traj], w: Int): Unit = {
    r.metric("ref.topdown_s", Bench.time(TopDown.simplifyW(PED, db, w))._2)
    r.metric("ref.bottomup_s", Bench.time(BottomUp.simplifyW(PED, db, w))._2)
  }
}
