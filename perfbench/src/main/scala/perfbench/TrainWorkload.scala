package perfbench

import repro.core.{Box, Model, RL4QDTS, SimpleDB, Traj, Training}
import repro.exp.Experiments
import repro.exp.Experiments.Evaluator

/** `train`: one `Training.train` at the bench configuration
  * (`Experiments.trainAgents()`: 12 databases x 50 trajectories x 10
  * episodes, its fixed training seed), then the trained policy simplifies
  * the bench DB (the held-out test split) at the training budget (1%) with
  * five sampling seeds drawn from the workload seed, and
  * `Evaluator.evaluate` scores each. Training itself stays at one seed: its cost
  * moves by ±10% between training seeds (21.0–26.2 s over five), more than a
  * bound can absorb.
  */
object TrainWorkload {

  val budgetFrac = 0.01

  /** Held-out simplifications per op. The cost of evaluating one depends on
    * the points it kept (TRACLUS neighbourhoods), so one alone would tie
    * `query_s.p50` to the seed's draw.
    */
  val heldOutRuns = 5

  /** `Evaluator.evaluate` calls per held-out simplification; `query_s.p50`
    * is the median over all of an op's calls.
    */
  val evalReps = 3

  final case class Inputs(test: Array[Traj], w: Int, wl: Array[Box], ev: Evaluator,
                          genS: Double, evS: Double)

  def setup(): Inputs = {
    val (test, genS) = Bench.time(Experiments.benchDb())
    val w = math.round(budgetFrac * Model.totalPoints(test)).toInt
    val wl = Dense.inferenceWorkload(test, 1000L)
    val (ev, evS) = Bench.time(new Evaluator(test, "data"))
    Inputs(test, w, wl, ev, genS, evS)
  }

  def heldOut(in: Inputs, a: Training.TrainedAgents, seed: Long, j: Int): SimpleDB =
    RL4QDTS.simplify(in.test, in.w, in.wl, a.cubeNet, a.pointNet, Experiments.benchParams,
      Dense.opSeed(seed, j))

  def run(s: Settings, r: Report): Unit = {
    val (in, setupS, setupRuns) = Bench.repeatedSetup(if (s.trace) 1 else Main.setupReps)(
      setup())
    r.detail("setup_runs_s") = setupRuns
    r.detail("test_points") = Model.totalPoints(in.test)
    val trainS, evalS, allocMb, gcS = scala.collection.mutable.ArrayBuffer.empty[Double]
    var agents: Training.TrainedAgents = null
    var held: SimpleDB = null
    var valF1, f1Mean, rangeF1 = 0.0
    // every op trains the same way, so op 0 alone sets the quality
    Bench.timed(s.seconds) { i =>
      r.op {
        val j0 = Jvm.sample()
        val (a, t) = Bench.time(Experiments.trainAgents())
        val (mb, gc) = Jvm.delta(j0, Jvm.sample())
        val sdbs = (0 until heldOutRuns).map(heldOut(in, a, s.seed, _))
        val evals = sdbs.map(sdb => (0 until evalReps).map(_ => Bench.time(in.ev.evaluate(sdb))))
        val f1s = evals.map(_.head._1)
        val te = Bench.median(evals.flatten.map(_._2))
        trainS += t; evalS += te; allocMb += mb; gcS += gc
        if (i == 0) {
          agents = a; held = sdbs.head
          valF1 = a.bestValF1
          f1Mean = f1s.map(Dense.f1Mean).sum / f1s.size
          rangeF1 = f1s.map(_.range).sum / f1s.size
        }
        r.ops += Map("train_s" -> t, "evaluate_s" -> te, "alloc_mb" -> mb, "gc_s" -> gc,
          "best_val_f1" -> a.bestValF1, "held_out_f1" -> f1s.map(Dense.f1Map))
        val ok = r.check("train.best_val_f1_in_0_1", a.bestValF1 > 0 && a.bestValF1 <= 1)
        sdbs.map(Checks.simpleDb(r, "held_out_simplify", in.test, _, in.w)).forall(identity) && ok
      }
    }
    r.detail("held_out_range_f1") = rangeF1
    if (!s.trace) {
      r.metric("setup_s", setupS)
      r.metric("op_s.p50", Bench.median(trainS.toSeq))
      r.metric("query_s.p50", Bench.median(evalS.toSeq))
      r.metric("f1_range", valF1)
      r.metric("f1_mean", f1Mean)
      return
    }

    val ((traced, prof), trainTracedS) = Bench.time(Jfr.profile(s.jfrDir, "train-op",
      Jfr.opCategories, _ == "main")(Experiments.trainAgents()))
    r.check("traced_train_same_val_f1", traced.bestValF1 == valF1)
    val trace = Replay.run(in.test, in.w, in.wl, agents.cubeNet, agents.pointNet,
      Experiments.benchParams, Dense.opSeed(s.seed, 0))
    r.check("replay_equals_simplify", Checks.sameResult(trace.result, held))
    r.check("replay_insertions_eq_w_minus_2t", trace.insertions == in.w - 2 * in.test.length)
    r.metric(trace.metrics)
    Layers.opShares(r, prof)
    val covered = Jfr.opCategories.map(c => prof.share(c.name)).sum
    r.detail("op_jfr_samples") = prof.samples
    r.detail("train_jfr_covered_share") = covered
    r.metric("trace.overhead_s", trainTracedS - Bench.median(trainS.toSeq))
    r.metric("jvm.alloc_mb", Bench.median(allocMb.toSeq))
    r.metric("jvm.gc_s", Bench.median(gcS.toSeq))
    r.metric("data.gen_s", in.genS)
    r.metric("data.points", Model.totalPoints(in.test).toDouble)
    r.metric("queries.evaluator_build_s", in.evS)
    r.metric("queries.range_s", Bench.time(in.ev.rangeF1(held))._2)
    val qprof = Jfr.evaluateProfile(in.ev, held)
    r.detail("evaluate_samples") = qprof.samples
    Layers.queryShares(r, qprof)
    Layers.index(r, in.test, in.wl)
    Layers.reference(r, in.test, in.w)
  }
}
