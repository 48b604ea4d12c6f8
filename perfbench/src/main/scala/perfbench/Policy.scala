package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import repro.core.{Model, Training}
import repro.exp.Experiments
import repro.rl.{MLP, NetWeights}

/** The stored Agent-Cube / Agent-Point policy that `dense` and `spark` load,
  * so their numbers do not move when training code changes. Doubles are
  * written with `Double.toString`, which round-trips exactly.
  */
object Policy {

  final case class Nets(cube: NetWeights, point: NetWeights, meta: Map[String, Any]) {
    def cubeNet: MLP = MLP.fromWeights(cube)
    def pointNet: MLP = MLP.fromWeights(point)
  }

  private def weightsJson(w: NetWeights): Map[String, Any] = Map(
    "inDim" -> w.inDim, "hidden" -> w.hidden, "outDim" -> w.outDim,
    "w1" -> w.w1.map(_.toSeq).toSeq, "b1" -> w.b1.toSeq,
    "w2" -> w.w2.map(_.toSeq).toSeq, "b2" -> w.b2.toSeq)

  private def vec(n: com.fasterxml.jackson.databind.JsonNode): Array[Double] =
    Array.tabulate(n.size)(i => java.lang.Double.parseDouble(n.get(i).asText))

  private def mat(n: com.fasterxml.jackson.databind.JsonNode): Array[Array[Double]] =
    Array.tabulate(n.size)(i => vec(n.get(i)))

  private def weightsOf(n: com.fasterxml.jackson.databind.JsonNode): NetWeights =
    NetWeights(n.get("inDim").asInt, n.get("hidden").asInt, n.get("outDim").asInt,
      mat(n.get("w1")), vec(n.get("b1")), mat(n.get("w2")), vec(n.get("b2")))

  def save(path: String, nets: Nets): Unit = {
    Files.createDirectories(Paths.get(path).toAbsolutePath.getParent)
    Files.write(Paths.get(path), (Json.write(Map(
      "meta" -> nets.meta, "cube" -> weightsJson(nets.cube),
      "point" -> weightsJson(nets.point))) + "\n").getBytes(UTF_8))
  }

  def load(path: String): Nets = {
    val n = Json.read(new String(Files.readAllBytes(Paths.get(path)), UTF_8))
    Nets(weightsOf(n.get("cube")), weightsOf(n.get("point")), Map.empty)
  }

  def sameBits(a: NetWeights, b: NetWeights): Boolean = {
    def eq(x: Array[Double], y: Array[Double]) =
      x.length == y.length && x.indices.forall(i =>
        java.lang.Double.doubleToRawLongBits(x(i)) == java.lang.Double.doubleToRawLongBits(y(i)))
    a.inDim == b.inDim && a.hidden == b.hidden && a.outDim == b.outDim &&
      a.w1.length == b.w1.length && a.w1.indices.forall(i => eq(a.w1(i), b.w1(i))) &&
      a.w2.length == b.w2.length && a.w2.indices.forall(i => eq(a.w2(i), b.w2(i))) &&
      eq(a.b1, b.b1) && eq(a.b2, b.b2)
  }
}

/** Retrains the policy fixture: `Experiments.trainAgents()` at its fixed
  * default seed, then writes both best-validation nets and checks that they
  * read back bit-exactly. Also replays one bench-DB simplification with the
  * trained and with untrained nets to record why untrained nets are no
  * substitute (they traverse and scan differently).
  *
  * Usage: python3 perfbench/run.py --make-policy
  */
object MakePolicy {
  def main(args: Array[String]): Unit = {
    val path = args(0)
    val (agents, trainS) = Bench.time(Experiments.trainAgents())
    val db = Experiments.benchDb()
    val w = math.round(0.02 * Model.totalPoints(db)).toInt
    val wl = Dense.inferenceWorkload(db, 124L)
    def profile(cube: MLP, point: MLP): Map[String, Any] = {
      val r = Replay.run(db, w, wl, cube, point, Experiments.benchParams, 1L)
      Map("cube.depth_mean" -> r.depthMean, "env.scanned_per_insert" -> r.scannedPerInsert)
    }
    val untrained = Training.makeAgents(Experiments.benchParams)
    val nets = Policy.Nets(agents.cubeNet.snapshot, agents.pointNet.snapshot, Map(
      "trainer" -> "repro.exp.Experiments.trainAgents() with its default arguments",
      "train_s" -> trainS, "best_val_f1" -> agents.bestValF1,
      "bench_db_replay_w_2pct" -> Map(
        "trained" -> profile(agents.cubeNet, agents.pointNet),
        "untrained" -> profile(untrained.cubeNet, untrained.pointNet))))
    Policy.save(path, nets)
    val back = Policy.load(path)
    require(Policy.sameBits(back.cube, nets.cube) && Policy.sameBits(back.point, nets.point),
      "policy fixture does not round-trip bit-exactly")
    println(Json.write(nets.meta))
  }
}
