package perfbench

import repro.core.{Box, Model, RL4QDTS, SimpleDB, Traj}
import repro.exp.Experiments
import repro.exp.Experiments.{Evaluator, TaskF1}
import repro.queries.Workload

/** `dense`: the bench database (100 Geolife-like trajectories of ~1,412
  * points) simplified by `RL4QDTS.simplify` at W = 2%·N with the stored
  * policy, each result scored by `Evaluator.evaluate` on all five query
  * tasks.
  */
object Dense {

  /** Leading ops left out of the timing medians (see `Bench.warmMedian`). */
  val warmupOps = 2

  val budgetFrac = 0.02

  def inferenceWorkload(db: Array[Traj], seed: Long): Array[Box] = {
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    Workload.generate("data", db, 100, 2000.0, math.max(tmax - tmin, 1.0), seed)
  }

  final case class Inputs(db: Array[Traj], w: Int, wl: Array[Box], ev: Evaluator,
                          nets: Policy.Nets, genS: Double, evS: Double)

  def setup(policy: String): Inputs = {
    val (db, genS) = Bench.time(Experiments.benchDb())
    val w = math.round(budgetFrac * Model.totalPoints(db)).toInt
    val wl = inferenceWorkload(db, 1000L)
    val (ev, evS) = Bench.time(new Evaluator(db, "data"))
    Inputs(db, w, wl, ev, Policy.load(policy), genS, evS)
  }

  def opSeed(seed: Long, i: Int): Long = 7919L * seed + i

  def simplify(in: Inputs, seed: Long): SimpleDB =
    RL4QDTS.simplify(in.db, in.w, in.wl, in.nets.cubeNet, in.nets.pointNet,
      Experiments.benchParams, seed)

  def f1Map(f: TaskF1): Map[String, Double] = Map("range" -> f.range, "knn_edr" -> f.knnEdr,
    "knn_emb" -> f.knnEmbed, "similarity" -> f.similarity, "clustering" -> f.clustering)

  def f1Mean(f: TaskF1): Double =
    (f.range + f.knnEdr + f.knnEmbed + f.similarity + f.clustering) / 5

  def run(s: Settings, r: Report): Unit = {
    val (in, setupS, setupRuns) = Bench.repeatedSetup(if (s.trace) 1 else Main.setupReps)(
      setup(s.policy))
    r.detail("setup_runs_s") = setupRuns
    r.detail("points") = Model.totalPoints(in.db)
    r.detail("budget") = in.w
    val simpS, evalS, allocMb, gcS = scala.collection.mutable.ArrayBuffer.empty[Double]
    val f1s = scala.collection.mutable.ArrayBuffer.empty[TaskF1]
    var first: SimpleDB = null
    val minOps = math.max(Main.qualityOps, warmupOps + Main.minTimedOps)
    Bench.timed(s.seconds, minOps) { i =>
      r.op {
        val j0 = Jvm.sample()
        val (sdb, t) = Bench.time(simplify(in, opSeed(s.seed, i)))
        val (mb, gc) = Jvm.delta(j0, Jvm.sample())
        val (f1, te) = Bench.time(in.ev.evaluate(sdb))
        if (i == 0) first = sdb
        simpS += t; evalS += te; allocMb += mb; gcS += gc
        if (i < Main.qualityOps) f1s += f1
        r.ops += Map("simplify_s" -> t, "evaluate_s" -> te, "alloc_mb" -> mb, "gc_s" -> gc,
          "points" -> sdb.totalPoints, "f1" -> f1Map(f1))
        Checks.simpleDb(r, "simplify", in.db, sdb, in.w)
      }
    }
    if (!s.trace) {
      r.metric("setup_s", setupS)
      r.metric("op_s.p50", Bench.warmMedian(simpS.toSeq, warmupOps))
      r.metric("query_s.p50", Bench.warmMedian(evalS.toSeq, warmupOps))
      r.metric("f1_range", f1s.map(_.range).sum / f1s.size)
      r.metric("f1_mean", f1s.map(f1Mean).sum / f1s.size)
      return
    }

    // traced: op 0 once more untraced, then its replay under spans and JFR
    val untracedS = Bench.time(simplify(in, opSeed(s.seed, 0)))._2
    val (trace, prof) = Jfr.profile(s.jfrDir, "dense-op", Jfr.opCategories, _ == "main")(
      Replay.run(in.db, in.w, in.wl, in.nets.cubeNet, in.nets.pointNet,
        Experiments.benchParams, opSeed(s.seed, 0)))
    r.check("replay_equals_simplify", first != null && Checks.sameResult(trace.result, first))
    r.check("replay_insertions_eq_w_minus_2t", trace.insertions == in.w - 2 * in.db.length)
    r.metric(trace.metrics)
    r.detail("op_jfr_samples") = prof.samples
    Layers.opShares(r, prof)
    r.metric("trace.overhead_s", trace.totalS - untracedS)
    r.metric("jvm.alloc_mb", Bench.warmMedian(allocMb.toSeq, warmupOps))
    r.metric("jvm.gc_s", Bench.warmMedian(gcS.toSeq, warmupOps))
    r.metric("data.gen_s", in.genS)
    r.metric("data.points", Model.totalPoints(in.db).toDouble)
    r.metric("queries.evaluator_build_s", in.evS)
    val (_, rangeS) = Bench.time(in.ev.rangeF1(first))
    r.metric("queries.range_s", rangeS)
    val qprof = Jfr.evaluateProfile(in.ev, first)
    r.detail("evaluate_samples") = qprof.samples
    Layers.queryShares(r, qprof)
    Layers.index(r, in.db, in.wl)
    Layers.reference(r, in.db, in.w)
    SparkProbe.run(s, r, in.nets)
  }
}
