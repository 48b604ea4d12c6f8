package repro.core

import repro.SparkSpec
import repro.data.TrajGen
import repro.queries.{Quality, RangeQuery, Workload}

/** Environment tests: incremental F1 bookkeeping, candidate values, states,
  * masks, start-level sampling.
  */
class QdtsEnvSpec extends SparkSpec {

  private val params = QdtsParams(startLevel = 3, maxLevel = 6, k = 2, delta = 10, leafCap = 8)

  private def mkEnv(nTrajs: Int = 10, nQ: Int = 20, seed: Long = 3): QdtsEnv = {
    val db = TrajGen.genLocal(TrajGen.chengdu, nTrajs, seed)
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    val wl = Workload.dataDist(db, nQ, 2000, tmax - tmin, seed + 1)
    new QdtsEnv(db, wl, params)
  }

  test("initial D' contains exactly the endpoints") {
    val env = mkEnv()
    assert(env.insertedCount === 2 * env.db.length)
    for (ti <- env.db.indices)
      assert(env.keptIndices(ti).toSeq === Seq(0, env.db(ti).length - 1))
  }

  test("insertPoint is idempotent") {
    val env = mkEnv()
    val c0 = env.insertedCount
    assert(env.insertPoint(0, 5))
    assert(!env.insertPoint(0, 5))
    assert(env.insertedCount === c0 + 1)
  }

  test("incremental avgF1 matches a from-scratch recomputation") {
    def recomputed(env: QdtsEnv): Double = {
      val simp = env.result.materialise(env.db)
      Quality.mean(env.workload.toSeq.map { q =>
        Quality.f1(RangeQuery.inMemory(env.db, q), RangeQuery.inMemory(simp, q))
      })
    }
    val env = mkEnv(nTrajs = 8, nQ = 15)
    val rng = new java.util.Random(7)
    // insert a bunch of random points
    for (_ <- 0 until 60) {
      val ti = rng.nextInt(env.db.length)
      val pi = rng.nextInt(env.db(ti).length)
      env.insertPoint(ti, pi)
    }
    assert(env.avgF1 === recomputed(env))
    // after a full simplification, the state training's validation reads
    val db = TrajGen.genLocal(TrajGen.geolife, 12, 9)
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    val full = new QdtsEnv(db, Workload.dataDist(db, 30, 300, tmax - tmin, 10), params)
    val agents = Training.makeAgents(params, seed = 5)
    RL4QDTS.simplify(full, 2 * full.db.length + 20, agents.cubeNet, agents.pointNet, 17,
      RL4QDTS.Variant())
    assert(full.avgF1 < 1.0)
    assert(full.avgF1 === recomputed(full))
  }

  test("diff = 1 - avgF1 and decreases (weakly) as points are inserted") {
    val env = mkEnv()
    val d0 = env.diff
    assert(math.abs(env.diff - (1 - env.avgF1)) < 1e-15)
    // inserting every point drives diff to 0
    for (ti <- env.db.indices; pi <- 0 until env.db(ti).length) env.insertPoint(ti, pi)
    assert(env.diff <= d0 + 1e-12)
    assert(env.diff < 1e-12)
  }

  test("octree remaining tracks insertions") {
    val env = mkEnv()
    assert(env.octree.root.remaining ===
      Model.totalPoints(env.db).toInt - env.insertedCount)
  }

  test("sampleStartNode returns nodes with un-inserted points") {
    val env = mkEnv()
    val rng = new java.util.Random(1)
    for (_ <- 0 until 20) {
      val n = env.sampleStartNode(rng)
      assert(n.remaining > 0)
      assert(n.level <= params.startLevel)
    }
  }

  test("sampleStartNode by data distribution favours dense cubes") {
    val env = mkEnv(nTrajs = 12, nQ = 5)
    val rng = new java.util.Random(2)
    val draws = (0 until 300).map(_ => env.sampleStartNode(rng, byQuery = false))
    assert(draws.forall(_.remaining > 0))
    // the empirical draw frequency of the densest cube should exceed that of
    // the sparsest sampled cube
    val byNode = draws.groupBy(identity).view.mapValues(_.size).toMap
    val dense = byNode.maxBy { case (n, _) => n.nPoints }
    val sparse = byNode.minBy { case (n, _) => n.nPoints }
    assert(dense._1.nPoints >= sparse._1.nPoints)
    assert(dense._2 >= sparse._2)
  }

  test("cubeState has 16 ratio entries in [0,1] summing to <= 2") {
    val env = mkEnv()
    val s = env.cubeState(env.octree.root)
    assert(s.length === 16)
    assert(s.forall(v => v >= 0 && v <= 1))
    val mSum = (0 until 8).map(i => s(2 * i)).sum
    assert(mSum <= 8.0 + 1e-9) // each child's M <= parent's M
  }

  test("cubeState of a leaf is the zero vector") {
    val env = mkEnv(nTrajs = 2)
    def findLeaf(n: repro.index.OctNode): repro.index.OctNode =
      if (n.isLeaf) n else findLeaf(n.children.find(_.nPoints > 0).get)
    assert(env.cubeState(findLeaf(env.octree.root)).forall(_ === 0.0))
  }

  test("cubeMask allows stop always, children only with remaining points") {
    val env = mkEnv()
    val mask = env.cubeMask(env.octree.root)
    assert(mask.length === 9 && mask(8))
    if (!env.octree.root.isLeaf)
      for (c <- 0 until 8)
        assert(mask(c) === (env.octree.root.children(c).remaining > 0))
  }

  test("candidates are per-trajectory max-v_s, sorted descending, at most K") {
    val env = mkEnv()
    val cands = env.candidates(env.octree.root)
    assert(cands.length <= params.k)
    assert(cands.iterator.sliding(2).withPartial(false).forall(w => w.head.vs >= w(1).vs))
    assert(cands.map(_.trajIdx).distinct.length === cands.length)
    // each candidate is not yet inserted
    assert(cands.forall(c => !env.isInserted(c.trajIdx, c.ptIdx)))
  }

  /** Walk a random descent from a sampled start cube: at each level stop
    * with probability 1/3, otherwise enter a random child with remaining points.
    */
  private def randomCube(env: QdtsEnv, rng: java.util.Random): repro.index.OctNode = {
    var node = env.sampleStartNode(rng, byQuery = rng.nextBoolean())
    var stop = false
    while (!stop && !node.isLeaf) {
      val mask = env.cubeMask(node)
      val kids = (0 until 8).filter(mask)
      if (kids.isEmpty || rng.nextInt(3) == 0) stop = true
      else node = node.children(kids(rng.nextInt(kids.length)))
    }
    node
  }

  test("candidates equal the reference scan at every step up to N, for three profiles") {
    for ((profile, nTrajs) <- Seq((TrajGen.chengdu, 8), (TrajGen.geolife, 4), (TrajGen.tdrive, 6))) {
      val gen = TrajGen.genLocal(profile, nTrajs, 11)
      val p0 = gen(0).points(0)
      // plus a one-point and a two-point trajectory
      val db = gen :+ Traj(1000, Array(p0)) :+ Traj(1001, gen(1).points.take(2))
      val (_, _, _, _, tmin, tmax) = Model.bounds(db)
      val env = new QdtsEnv(db, Workload.dataDist(db, 10, 2000, tmax - tmin, 12), params)
      val rng = new java.util.Random(13)
      val n = Model.totalPoints(db).toInt
      var steps = 0
      while (env.insertedCount < n) {
        val node = randomCube(env, rng)
        val cands = env.candidates(node)
        assert(cands.toSeq === env.candidatesReference(node).toSeq,
          s"${profile.name} step $steps level ${node.level}")
        assert(cands.nonEmpty)
        val c = cands(rng.nextInt(cands.length))
        assert(env.insertPoint(c.trajIdx, c.ptIdx))
        steps += 1
      }
      assert(env.candidates(env.octree.root).isEmpty)
      assert(env.result.totalPoints === n)
    }
  }

  private def bits(d: Double): Long = java.lang.Double.doubleToLongBits(d)

  private def candKey(cs: Array[_ <: QdtsEnv#Candidate]) =
    cs.map(c => (c.trajIdx, c.ptIdx, bits(c.vs), bits(c.vt))).toSeq

  /** Insert every point of `db` through random descents, checking at each
    * step that `candidates` equals the reference scan bit for bit. Returns
    * the number of steps at which more than K trajectories tied at the K-th
    * candidate's v_s, where the tie-break decides who is left out.
    */
  private def checkCandidatesAgainstReference(db: Array[Traj], label: String): Int = {
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    val env = new QdtsEnv(db, Workload.dataDist(db, 10, 2000, math.max(tmax - tmin, 1.0), 12), params)
    val rng = new java.util.Random(29)
    val n = Model.totalPoints(db).toInt
    var steps = 0
    var tiedBeyondK = 0
    while (env.insertedCount < n) {
      val node = randomCube(env, rng)
      val cands = env.candidates(node)
      assert(candKey(cands) === candKey(env.candidatesReference(node)), s"$label step $steps")
      assert(cands.nonEmpty)
      if (cands.length == params.k) {
        val kth = bits(cands.last.vs)
        val bestVs = env.octree.pointsIn(node).filterNot { case (ti, pi) => env.isInserted(ti, pi) }
          .toSeq.groupBy(_._1).values.map(_.map { case (ti, pi) => env.cachedValues(ti, pi)._1 }.max)
        if (bestVs.count(v => bits(v) == kth) > params.k) tiedBeyondK += 1
      }
      val c = cands(rng.nextInt(cands.length))
      assert(env.insertPoint(c.trajIdx, c.ptIdx))
      steps += 1
    }
    assert(env.candidates(env.octree.root).isEmpty)
    tiedBeyondK
  }

  test("candidates equal the reference scan on tied, NaN-coordinate and bench-profile data") {
    // overlapping stationary trajectories (every v_s is exactly 0.0) and
    // straight lines, so many trajectories tie across a cube
    val still = Array.tabulate(6)(i => Traj(i, Array.tabulate(40)(j => Point(100 + 3 * i, 200, 10.0 * j))))
    val lines = Array.tabulate(6)(i => Traj(10 + i, Array.tabulate(40)(j => Point(100 + j, 200 + i, 10.0 * j + i))))
    // interleave them so flat order does not follow trajectory order
    val tied = still.zip(lines).flatMap { case (a, b) => Seq(b, a) }
    val tiedSteps = checkCandidatesAgainstReference(tied, "tied")
    assert(tiedSteps > 30, s"only $tiedSteps steps with ties beyond K")
    // NaN coordinates: inside a trajectory, and at an endpoint (every v_s NaN)
    val gen = TrajGen.genLocal(TrajGen.chengdu, 5, 31)
    def withNaN(tr: Traj, at: Int => Boolean) =
      tr.copy(points = tr.points.zipWithIndex.map { case (p, j) => if (at(j)) p.copy(x = Double.NaN) else p })
    val nan = gen.updated(1, withNaN(gen(1), _ % 5 == 2)).updated(3, withNaN(gen(3), _ == 0))
    checkCandidatesAgainstReference(nan, "NaN")
    val bench = TrajGen.genLocal(repro.exp.Experiments.benchProfile.copy(avgLen = 150), 5, 37)
    checkCandidatesAgainstReference(bench, "bench profile")
  }

  test("avgF1 right after construction has the bits of a fresh RangeQuery.inMemory recomputation") {
    val gen = TrajGen.genLocal(TrajGen.geolife, 6, 41)
    for (db <- Seq(TrajGen.genLocal(TrajGen.chengdu, 10, 43), gen :+ Traj(99, Array(gen(0).points(3))))) {
      val (_, _, _, _, tmin, tmax) = Model.bounds(db)
      val wl = Workload.dataDist(db, 30, 1500, tmax - tmin, 44)
      val env = new QdtsEnv(db, wl, params)
      val simp = env.result.materialise(db)
      val recomputed = Quality.mean(wl.toSeq.map { q =>
        Quality.f1(RangeQuery.inMemory(db, q), RangeQuery.inMemory(simp, q))
      })
      assert(bits(env.avgF1) === bits(recomputed))
      assert(env.avgF1 < 1.0)
    }
  }

  test("cached (v_s, v_t) equal pointValues for every un-inserted point after each insertion") {
    val env = mkEnv(nTrajs = 4, nQ = 5)
    val rng = new java.util.Random(17)
    val all = scala.util.Random.javaRandomToRandom(rng)
      .shuffle(for (ti <- env.db.indices; pi <- env.db(ti).points.indices) yield (ti, pi))
    def check(): Unit =
      for (ti <- env.db.indices; pi <- env.db(ti).points.indices if !env.isInserted(ti, pi)) {
        val (cs, ct) = env.cachedValues(ti, pi)
        val (s, t) = env.pointValues(ti, pi)
        assert(java.lang.Double.doubleToLongBits(cs) === java.lang.Double.doubleToLongBits(s))
        assert(java.lang.Double.doubleToLongBits(ct) === java.lang.Double.doubleToLongBits(t))
      }
    check()
    for ((ti, pi) <- all) if (env.insertPoint(ti, pi)) check()
  }

  /** Every node of `o` in DFS order. */
  private def nodes(o: repro.index.Octree): Vector[repro.index.OctNode] = {
    def rec(n: repro.index.OctNode): Vector[repro.index.OctNode] =
      n +: (if (n.isLeaf) Vector.empty else n.children.toVector.flatMap(rec))
    rec(o.root)
  }

  test("reset() gives the state of a fresh env, for two profiles and short trajectories") {
    def bits(d: Double) = java.lang.Double.doubleToLongBits(d)
    val agents = Training.makeAgents(params, seed = 5)
    for ((profile, nTrajs) <- Seq((TrajGen.chengdu, 8), (TrajGen.geolife, 4))) {
      val gen = TrajGen.genLocal(profile, nTrajs, 19)
      // plus a one-point and a two-point trajectory
      val db = gen :+ Traj(1000, Array(gen(0).points(0))) :+ Traj(1001, gen(1).points.take(2))
      val (_, _, _, _, tmin, tmax) = Model.bounds(db)
      val wl = Workload.dataDist(db, 10, 2000, tmax - tmin, 20)
      val env = new QdtsEnv(db, wl, params)
      val fresh = new QdtsEnv(db, wl, params)
      val freshNodes = nodes(fresh.octree)
      val rng = new java.util.Random(23)
      for (round <- 1 to 3) {
        for (_ <- 0 until 50 * round) {
          val ti = rng.nextInt(db.length)
          env.insertPoint(ti, rng.nextInt(db(ti).length))
        }
        env.reset()
        val msg = s"${profile.name} round $round"
        assert(env.insertedCount === fresh.insertedCount, msg)
        assert(bits(env.avgF1) === bits(fresh.avgF1), msg)
        assert(env.result.kept.view.mapValues(_.toSeq).toMap ===
          fresh.result.kept.view.mapValues(_.toSeq).toMap, msg)
        val envNodes = nodes(env.octree)
        assert(envNodes.map(_.remaining) === freshNodes.map(_.remaining), msg)
        for (ti <- db.indices; pi <- db(ti).points.indices if !env.isInserted(ti, pi)) {
          val (s1, t1) = env.cachedValues(ti, pi); val (s2, t2) = fresh.cachedValues(ti, pi)
          assert((bits(s1), bits(t1)) === (bits(s2), bits(t2)), s"$msg point ($ti, $pi)")
        }
        for (_ <- 0 until 20) {
          val i = rng.nextInt(envNodes.length)
          def key(cs: Array[_ <: QdtsEnv#Candidate]) =
            cs.map(c => (c.trajIdx, c.ptIdx, bits(c.vs), bits(c.vt))).toSeq
          assert(key(env.candidates(envNodes(i))) === key(fresh.candidates(freshNodes(i))), s"$msg node $i")
        }
      }
      // a simplification on the reused, dirtied env equals one on a new env
      for (ti <- db.indices) env.insertPoint(ti, db(ti).length / 2)
      val w = 2 * db.length + 40
      val reused = RL4QDTS.simplify(env, w, agents.cubeNet, agents.pointNet, 31, RL4QDTS.Variant())
      val alone = RL4QDTS.simplify(db, w, wl, agents.cubeNet, agents.pointNet, params, seed = 31)
      assert(reused.kept.view.mapValues(_.toSeq).toMap === alone.kept.view.mapValues(_.toSeq).toMap)
    }
  }

  test("start-cube caches warmed, dirtied and reset equal a fresh env and the reference scan") {
    val gen = TrajGen.genLocal(TrajGen.chengdu, 8, 47)
    val db = gen :+ Traj(1000, Array(gen(0).points(0))) :+ Traj(1001, gen(1).points.take(2))
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    val wl = Workload.dataDist(db, 10, 2000, tmax - tmin, 48)
    val env = new QdtsEnv(db, wl, params)
    val fresh = new QdtsEnv(db, wl, params)
    val cubes = env.octree.frontierAtLevel(params.startLevel)
    val freshCubes = fresh.octree.frontierAtLevel(params.startLevel)
    assert(cubes.length > 8)
    val rng = new java.util.Random(49)
    for (round <- 1 to 3) {
      cubes.foreach(env.candidates) // every cache valid
      for (_ <- 0 until 40 * round) {
        val ti = rng.nextInt(db.length)
        env.insertPoint(ti, rng.nextInt(db(ti).length))
      }
      if (round == 2) cubes.foreach(env.candidates) // valid again before the reset
      env.reset()
      for (i <- cubes.indices) {
        val msg = s"round $round cube $i"
        assert(candKey(env.candidates(cubes(i))) === candKey(fresh.candidates(freshCubes(i))), msg)
        assert(candKey(env.candidates(cubes(i))) === candKey(env.candidatesReference(cubes(i))), msg)
      }
    }
  }

  test("a stop-always simplification gathers from the caches and matches the reference at every step") {
    for (db <- Seq(TrajGen.genLocal(repro.exp.Experiments.benchProfile.copy(avgLen = 150), 6, 53),
                   TrajGen.genLocal(TrajGen.tdrive, 6, 53))) {
      val (_, _, _, _, tmin, tmax) = Model.bounds(db)
      val env = new QdtsEnv(db, Workload.dataDist(db, 10, 2000, tmax - tmin, 54), params)
      val seeds = new java.util.Random(55)
      val n = Model.totalPoints(db).toInt
      var steps = 0
      while (env.insertedCount < n) {
        // Agent-Cube stops at once, so the step gathers at the start cube that
        // a generator of the same seed samples
        val seed = seeds.nextLong()
        val cube = env.sampleStartNode(new java.util.Random(seed))
        val expected = env.candidatesReference(cube)
        var pick = -1
        RL4QDTS.step(env, new java.util.Random(seed), RL4QDTS.Variant(), (_, _) => 8, { (s, mask) =>
          // the step's own gather produced this state; the gather repeated
          // here is served from the now valid cache
          val (es, emask) = env.pointState(cube, expected)
          assert(s.map(bits).toSeq === es.map(bits).toSeq && mask.toSeq === emask.toSeq, s"step $steps")
          assert(candKey(env.candidates(cube)) === candKey(expected), s"step $steps")
          pick = steps % expected.length
          pick
        })
        assert(env.isInserted(expected(pick).trajIdx, expected(pick).ptIdx), s"step $steps")
        steps += 1
      }
      assert(steps === n - 2 * db.length)
    }
  }

  // --- the parallel build against the one-task build ---

  /** What a build fixes, part by part: the octree's layout and remaining
    * counts, every point's inserted flag and (v_s, v_t) bits, the query
    * state, the avgF1 bits and every start cube's candidates.
    */
  private def builtState(env: QdtsEnv): Seq[(String, Any)] = {
    val db = env.db
    val points = for (ti <- db.indices; pi <- db(ti).points.indices) yield {
      val (vs, vt) = env.cachedValues(ti, pi)
      (env.isInserted(ti, pi), bits(vs), bits(vt))
    }
    val (gt, inBox, rsSize, matched) = env.queryState
    Seq("flat" -> env.octree.flat.toVector, "remaining" -> nodes(env.octree).map(_.remaining),
      "points" -> points, "gt" -> gt, "inBox" -> inBox, "rsSize" -> rsSize, "matched" -> matched,
      "avgF1" -> bits(env.avgF1), "inserted" -> env.insertedCount,
      "candidates" -> env.octree.frontierAtLevel(env.params.startLevel).map(c => candKey(env.candidates(c))))
  }

  private def assertSameBuild(env: QdtsEnv, expected: Seq[(String, Any)], clue: String): Unit =
    for (((name, got), (_, want)) <- builtState(env).zip(expected)) assert(got == want, s"$clue: $name")

  /** The bench database, its perfbench `dense` workload and parameters. */
  private lazy val bench = {
    val db = repro.exp.Experiments.benchDb()
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    (db, Workload.generate("data", db, 100, 2000.0, math.max(tmax - tmin, 1.0), 1000L))
  }

  test("an env built in parallel equals one built as a single task") {
    val gen = TrajGen.genLocal(TrajGen.chengdu, 12, 61)
    val nan = gen(2).copy(points = gen(2).points.zipWithIndex.map { case (p, j) =>
      if (j % 7 == 3) p.copy(y = Double.NaN) else p })
    val mixed = gen.updated(2, nan) :+ Traj(1000, Array(gen(0).points(0))) :+
      Traj(1001, gen(1).points.take(2)) :+ Traj(1002, Array.empty[Point])
    val geolife = TrajGen.genLocal(TrajGen.geolife, 20, 62)
    def workload(db: Array[Traj]) = {
      val (_, _, _, _, tmin, tmax) = Model.bounds(db)
      Workload.dataDist(db, 40, 2000, tmax - tmin, 63)
    }
    val cases = Seq(
      ("bench", bench._1, bench._2, repro.exp.Experiments.benchParams),
      ("geolife", geolife, workload(geolife), params),
      ("short, empty and NaN trajectories", mixed, workload(gen), params))
    for ((name, db, wl, ps) <- cases) {
      assert(Model.totalPoints(db) >= 128, name) // split into chunks when threads allow
      val one = builtState(repro.Par.inCaller(new QdtsEnv(db, wl, ps)))
      assertSameBuild(new QdtsEnv(db, wl, ps), one, name)
    }
  }

  test("bench envs built on four threads at once, and inside a Par task, equal one built alone") {
    val (db, wl) = bench
    val ps = repro.exp.Experiments.benchParams
    val alone = builtState(new QdtsEnv(db, wl, ps))
    val start = new java.util.concurrent.CountDownLatch(1)
    val envs = new Array[QdtsEnv](4)
    val threads = Seq.tabulate(4)(i => new Thread(() => { start.await(); envs(i) = new QdtsEnv(db, wl, ps) }))
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join())
    for ((env, i) <- envs.zipWithIndex) assertSameBuild(env, alone, s"thread $i")
    // nested fork/join: a Par.all task on a pool worker, whose build forks
    // its own tasks (a latch, as `get()` could run the task on this thread)
    val done = new java.util.concurrent.CountDownLatch(1)
    var nested: Either[Throwable, (Boolean, QdtsEnv)] = null
    java.util.concurrent.ForkJoinPool.commonPool().execute(new Runnable {
      def run(): Unit =
        try nested = Right((Thread.currentThread.isInstanceOf[java.util.concurrent.ForkJoinWorkerThread],
          repro.Par.all(Seq(() => new QdtsEnv(db, wl, ps))).head))
        catch { case t: Throwable => nested = Left(t) }
        finally done.countDown()
    })
    done.await()
    val (onWorker, env) = nested.fold(throw _, identity)
    assert(onWorker)
    assertSameBuild(env, alone, "inside Par.all on a pool worker")
  }

  test("pointValues: a point on its anchor segment has vs 0") {
    val db = Array(Traj(0, Array(
      Point(0, 0, 0), Point(5, 0, 5), Point(10, 0, 10))))
    val wl = Array.empty[Box]
    val env = new QdtsEnv(db, wl, params)
    val (vs, vt) = env.pointValues(0, 1)
    assert(vs === 0.0 && vt === 0.0)
  }

  test("pointValues: synchronised displacement and temporal offset") {
    val db = Array(Traj(0, Array(
      Point(0, 0, 0), Point(5, 3, 5), Point(10, 0, 10))))
    val env = new QdtsEnv(db, Array.empty[Box], params)
    val (vs, vt) = env.pointValues(0, 1)
    assert(vs === 3.0)
    assert(vt === 0.0) // closest point on segment is at x=5 => t=5 = its own time
  }

  test("pointValues uses the *current* anchor (tightens as points are inserted)") {
    val db = Array(Traj(0, Array(
      Point(0, 0, 0), Point(1, 4, 1), Point(2, 8, 2), Point(3, 0, 3))))
    val env = new QdtsEnv(db, Array.empty[Box], params)
    val (vsBefore, _) = env.pointValues(0, 1)
    env.insertPoint(0, 2) // anchor of point 1 becomes (0,2)
    val (vsAfter, _) = env.pointValues(0, 1)
    assert(vsAfter < vsBefore)
  }

  test("pointState is zero-padded and masked to the candidate count") {
    val env = mkEnv(nTrajs = 1) // at most 1 candidate per cube
    val node = env.octree.root
    val cands = env.candidates(node)
    val (s, mask) = env.pointState(node, cands)
    assert(s.length === 2 * params.k && mask.length === params.k)
    assert(mask.count(identity) === cands.length)
    if (cands.length < params.k) {
      assert(s(2 * (params.k - 1)) === 0.0)
      assert(!mask(params.k - 1))
    }
  }

  test("result is a valid SimpleDB with endpoints for all trajectories") {
    val env = mkEnv()
    env.insertPoint(0, 3)
    val s = env.result
    assert(s.kept.size === env.db.length)
    for (tr <- env.db) {
      val kept = s.kept(tr.id)
      assert(kept.head === 0 && kept.last === tr.length - 1)
      assert(kept.toSeq === kept.sorted.toSeq)
    }
    assert(s.totalPoints === env.insertedCount)
  }
}
