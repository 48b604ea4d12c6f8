package perfbench

import repro.core.{Box, Model, QdtsEnv, QdtsParams, SimpleDB, Traj}
import repro.index.Octree
import repro.rl.MLP

/** A traced copy of `RL4QDTS.simplify` (full model: Agent-Cube and
  * Agent-Point both on) built only from the public `QdtsEnv`/`MLP` API, with
  * a span around every call. It must return the same `SimpleDB` as the
  * untraced call for the same inputs and seed; the benchmark checks that.
  */
object Replay {

  final case class Trace(
      result: SimpleDB,
      buildS: Double, sampleStartS: Double, cubeStateS: Double, cubeForwardS: Double,
      candidatesS: Double, pointStateS: Double, pointForwardS: Double, insertS: Double,
      totalS: Double, insertions: Int, scannedPoints: Long, depthSum: Long, stops: Int,
      startCubePts: Array[Int]) {
    def scannedPerInsert: Double = scannedPoints.toDouble / math.max(insertions, 1)
    def depthMean: Double = depthSum.toDouble / math.max(insertions, 1)
    def stopFrac: Double = stops.toDouble / math.max(insertions, 1)

    def metrics: Map[String, Double] = Map(
      "env.build_s" -> buildS, "env.sample_start_s" -> sampleStartS,
      "env.cube_state_s" -> cubeStateS, "env.candidates_s" -> candidatesS,
      "env.point_state_s" -> pointStateS, "env.insert_s" -> insertS,
      "cube.forward_s" -> cubeForwardS, "point.forward_s" -> pointForwardS,
      "env.insertions" -> insertions.toDouble, "env.scanned_per_insert" -> scannedPerInsert,
      "cube.depth_mean" -> depthMean, "cube.stop_frac" -> stopFrac,
      "index.start_cube_pts.p50" -> Bench.median(startCubePts.toSeq.map(_.toDouble)))
  }

  def run(db: Array[Traj], totalBudget: Int, workload: Array[Box], cubeNet: MLP,
          pointNet: MLP, params: QdtsParams, seed: Long): Trace = {
    val tStart = System.nanoTime()
    var t = tStart
    // each call below is charged to one span: lap() returns the nanoseconds
    // since the previous lap
    def lap(): Long = { val now = System.nanoTime(); val d = now - t; t = now; d }
    val env = new QdtsEnv(db, workload, params)
    val build = lap()
    val rng = new java.util.Random(seed)
    val target = math.min(totalBudget.toLong, Model.totalPoints(db)).toInt
    val insertions0 = env.insertedCount
    var sample, cubeState, cubeFwd, cands, pointState, pointFwd, insert = 0L
    var scanned, depth = 0L
    var stops = 0
    val starts = Array.newBuilder[Int]
    lap()
    while (env.insertedCount < target) {
      var node = env.sampleStartNode(rng)
      sample += lap()
      starts += node.nPoints
      val startLevel = node.level
      var stop = false
      while (!stop && !node.isLeaf) {
        val s = env.cubeState(node)
        val mask = env.cubeMask(node)
        cubeState += lap()
        val q = cubeNet.forward(s)
        cubeFwd += lap()
        val a = mask.indices.filter(mask).maxBy(q)
        if (a == 8) { stop = true; stops += 1 } else node = node.children(a)
      }
      depth += node.level - startLevel
      scanned += node.nPoints
      lap()
      val cs = env.candidates(node)
      cands += lap()
      require(cs.nonEmpty, "chosen cube has no un-inserted points")
      val c =
        if (cs.length == 1) cs(0)
        else {
          val (s, mask) = env.pointState(node, cs)
          pointState += lap()
          val q = pointNet.forward(s)
          pointFwd += lap()
          val a = mask.indices.filter(mask).maxBy(q)
          cs(math.min(a, cs.length - 1))
        }
      lap()
      env.insertPoint(c.trajIdx, c.ptIdx)
      insert += lap()
    }
    val result = env.result
    val total = (System.nanoTime() - tStart) / 1e9
    def s(ns: Long) = ns / 1e9
    Trace(result, s(build), s(sample), s(cubeState), s(cubeFwd), s(cands), s(pointState),
      s(pointFwd), s(insert), total, env.insertedCount - insertions0, scanned, depth, stops,
      starts.result())
  }

  /** A standalone octree build over the same inputs as `QdtsEnv`'s: the part
    * of env build that is index work (the rest is ground-truth bookkeeping).
    */
  def indexBuild(db: Array[Traj], workload: Array[Box], params: QdtsParams): (Octree, Double) =
    Bench.time {
      val o = new Octree(db, params.maxLevel, params.leafCap)
      workload.foreach(o.addQuery)
      o
    }
}
