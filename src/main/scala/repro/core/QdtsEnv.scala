package repro.core

import repro.Par
import repro.index.{OctNode, Octree}
import repro.queries.Quality
import repro.traj.ErrorMeasures

/** Hyper-parameters of RL4QDTS (Section IV-D / V-A). Paper values S=9, E=12,
  * K=2, Δ=50 are tied to millions-of-points databases; `Experiments.benchParams`
  * is the same mechanism at repro scale (see DESIGN.md substitutions).
  */
final case class QdtsParams(
    startLevel: Int, // S: Agent-Cube starts from a query-distribution-sampled cube at this level
    maxLevel: Int,   // E: maximum octree level
    k: Int,          // K: Agent-Point state/action size
    delta: Int,      // Δ: insertions between reward evaluations
    leafCap: Int)    // adaptive octree split threshold
    extends Serializable

/** The shared environment of Agent-Cube and Agent-Point: the octree with
  * query counts, the growing simplified database D', and *incremental*
  * range-query F1 bookkeeping so the reward signal
  * `diff(Q(D),Q(D')) − diff(Q(D),Q(D''))` costs O(#queries) per insertion
  * instead of re-running the workload.
  *
  * Per-point state lives in `Octree.flat` order: flat index `f` is point
  * `Octree.ptOf(flat(f))` of trajectory `trajF(f)`, `inserted(f)` says
  * whether it is in D', and `vs(f)`/`vt(f)` cache its (v_s, v_t) of Eq. 6;
  * `pos(ti)(pi)` maps a point back to its flat index. An insertion into
  * trajectory `ti` changes the anchor segment only of `ti`'s points between
  * the new point's two neighbouring anchors, so it refreshes just those: one
  * insertion costs O(#queries + octree depth + anchor segment). The range
  * ground truth comes from the octree (`Octree.trajsIn`).
  *
  * Candidate cache: Agent-Cube almost always stops at its start cube, so
  * each start cube (`startFrontier`) keeps its best candidate per
  * trajectory. At construction every start cube's points are laid out once
  * per trajectory, one slot per (start cube, trajectory), each slot's flat
  * indices ascending. A slot caches the flat index of its best un-inserted
  * point, and a flag says whether that is still valid. `insertPoint` and
  * `refresh` clear the flag of the slot of every point they touch, and
  * `reset()` clears every flag. A gather at a start cube rescans only its
  * stale slots, with the keep test of the full scan in the same (flat)
  * order, so it picks the same point per trajectory; its cost is the
  * cube's trajectory count plus the points of its stale slots. A gather
  * below the start cube is one sequential pass over the cube's `[lo, hi)`
  * of the flat arrays. Either feeds the same top-K insertion.
  *
  * Construction runs its independent parts as [[Par]] tasks: the octree's
  * subtrees, the range ground truth in query chunks and the endpoints-only
  * (v_s, v_t) in trajectory chunks. Each task writes only its own slots, so
  * the env is the same whatever the thread count.
  *
  * Training builds one env per database and calls `reset()` at the start
  * of every episode; inference (`RL4QDTS.simplify`) resets it before each
  * run. `reset()` copies back the endpoints-only state taken at
  * construction.
  */
final class QdtsEnv(val db: Array[Traj], val workload: Array[Box], val params: QdtsParams) {

  val octree = new Octree(db, params.maxLevel, params.leafCap)
  workload.foreach(octree.addQuery)

  // the octree's shape is fixed after the build, so the start-level frontier is too
  private val startFrontier: Array[OctNode] = octree.frontierAtLevel(params.startLevel).toArray

  // ---- per-point state, indexed by position in `octree.flat` ----
  private val trajF: Array[Int] = new Array[Int](octree.flat.length)
  private val pos: Array[Array[Int]] = db.map(tr => new Array[Int](tr.length))
  fillLayout()

  /** Fill `trajF` and `pos` from `octree.flat`. A method rather than
    * constructor code so that the JIT compiles the loop: in the constructor
    * body it took ~5x as long on the bench database. Every construction
    * loop below follows the same rule, one loop per method.
    */
  private def fillLayout(): Unit = {
    val flat = octree.flat
    var f = 0
    while (f < flat.length) {
      val ti = Octree.trajOf(flat(f))
      trajF(f) = ti
      pos(ti)(Octree.ptOf(flat(f))) = f
      f += 1
    }
  }

  private val inserted: Array[Boolean] = new Array[Boolean](trajF.length)
  // (v_s, v_t) of every point w.r.t. its current anchor segment; meaningful
  // for un-inserted points once both endpoints of the trajectory are in D'
  private val vs: Array[Double] = new Array[Double](trajF.length)
  private val vt: Array[Double] = new Array[Double](trajF.length)
  // scratch of `candidates`: flat index of the best point per trajectory
  // (-1 = none yet), the trajectories seen (reset after every call), and
  // the top-K slots
  private val best: Array[Int] = Array.fill(db.length)(-1)
  private val touched: Array[Int] = new Array[Int](db.length)
  private val top: Array[Int] = new Array[Int](params.k)
  private var nInserted: Int = 0

  // ---- candidate cache of the start cubes (see the class doc) ----
  // slot of every flat index; start cube `c` owns slots
  // [cubeSlots(c), cubeSlots(c + 1)), and slot `s` lies in cube `slotCube(s)`
  private val slotOf: Array[Int] = new Array[Int](trajF.length)
  private val cubeSlots: Array[Int] = new Array[Int](startFrontier.length + 1)
  private val nSlots: Int = assignSlots()
  private val slotCube: Array[Int] = new Array[Int](nSlots)
  // slot `s`'s flat indices are slotPts[slotLo(s), slotLo(s + 1)), ascending
  private val slotLo: Array[Int] = new Array[Int](nSlots + 1)
  private val slotPts: Array[Int] = new Array[Int](trajF.length)
  layoutSlots()
  // cached best flat index of each slot (-1 = all inserted), valid iff fresh
  private val slotBest: Array[Int] = new Array[Int](nSlots)
  private val slotFresh: Array[Boolean] = new Array[Boolean](nSlots)

  /** Number the slots cube by cube, in the order each cube's trajectories
    * first appear in it, into `slotOf` and `cubeSlots`; returns the count.
    */
  private def assignSlots(): Int = {
    val stamp = Array.fill(db.length)(-1) // last cube that gave the trajectory a slot
    val slotOfTraj = new Array[Int](db.length)
    var next = 0
    var c = 0
    while (c < startFrontier.length) {
      cubeSlots(c) = next
      next = assignCubeSlots(c, next, stamp, slotOfTraj)
      c += 1
    }
    cubeSlots(c) = next
    next
  }

  private def assignCubeSlots(c: Int, first: Int, stamp: Array[Int], slotOfTraj: Array[Int]): Int = {
    var next = first
    var f = startFrontier(c).lo
    while (f < startFrontier(c).hi) {
      val ti = trajF(f)
      if (stamp(ti) != c) { stamp(ti) = c; slotOfTraj(ti) = next; next += 1 }
      slotOf(f) = slotOfTraj(ti)
      f += 1
    }
    next
  }

  /** Fill `slotCube`, `slotLo` and `slotPts` from `slotOf`. */
  private def layoutSlots(): Unit = {
    markSlotCubes()
    countSlotPoints()
    prefixSlotLo()
    scatterSlotPoints()
  }

  private def markSlotCubes(): Unit = {
    var c = 0
    while (c < startFrontier.length) {
      java.util.Arrays.fill(slotCube, cubeSlots(c), cubeSlots(c + 1), c)
      c += 1
    }
  }

  private def countSlotPoints(): Unit = {
    var f = 0
    while (f < slotOf.length) { slotLo(slotOf(f) + 1) += 1; f += 1 }
  }

  private def prefixSlotLo(): Unit = {
    var s = 0
    while (s < nSlots) { slotLo(s + 1) += slotLo(s); s += 1 }
  }

  private def scatterSlotPoints(): Unit = {
    val next = java.util.Arrays.copyOf(slotLo, nSlots)
    var f = 0
    while (f < slotOf.length) {
      val s = slotOf(f)
      slotPts(next(s)) = f
      next(s) += 1
      f += 1
    }
  }

  // ---- incremental F1 over the range-query workload ----
  // ground truth on the original database
  private val gt: Array[Array[Boolean]] = groundTruth()
  private val gtSize: Array[Int] = gt.map(_.count(identity))
  // current state on the simplified database
  private val inBox: Array[Array[Boolean]] = workload.map(_ => new Array[Boolean](db.length))
  private val rsSize: Array[Int] = new Array[Int](workload.length)
  private val matched: Array[Int] = new Array[Int](workload.length)

  // endpoints of every trajectory, the size of the most simplified database
  private val nEndpoints: Int = db.map(tr => math.min(tr.length, 2)).sum

  insertEndpoints()

  // the endpoints-only state, which `reset()` copies back
  private val inserted0: Array[Boolean] = inserted.clone()
  private val vs0: Array[Double] = vs.clone()
  private val vt0: Array[Double] = vt.clone()
  private val inBox0: Array[Array[Boolean]] = inBox.map(_.clone())
  private val rsSize0: Array[Int] = rsSize.clone()
  private val matched0: Array[Int] = matched.clone()

  /** `workload.map(octree.trajsIn)` in query chunks; the chunk count
    * follows the point count, which sets the cost of a query.
    */
  private def groundTruth(): Array[Array[Boolean]] =
    Par.ranges(workload.length, Par.chunks(trajF.length)) { (lo, hi) =>
      workload.slice(lo, hi).map(octree.trajsIn)
    }.toArray.flatten

  /** Insert every trajectory's endpoints, which is what inserting them one
    * by one with `insertPoint` does: the values of a trajectory's inner
    * points are those of anchor segment (first, last), computed in
    * trajectory chunks, each writing only its own trajectories' slots; then
    * the endpoints are recorded in trajectory order.
    */
  private def insertEndpoints(): Unit = {
    Par.ranges(db.length, Par.chunks(trajF.length))(refreshWhole)
    var ti = 0
    while (ti < db.length) {
      Model.endpoints(db(ti).length).foreach(pi => record(ti, pi, pos(ti)(pi)))
      ti += 1
    }
  }

  /** The values of trajectories `[lo, hi)` with only their endpoints kept. */
  private def refreshWhole(lo: Int, hi: Int): Unit = {
    var ti = lo
    while (ti < hi) {
      if (db(ti).length >= 2) refresh(ti, 0, db(ti).length - 1)
      ti += 1
    }
  }

  /** Restore D' to the most simplified database: the endpoints of every
    * trajectory. The octree, its query counts and the ground truth depend
    * only on (D, workload) and are kept, so one env serves every episode on
    * its database.
    */
  def reset(): Unit = {
    // every other field is a function of the inserted set, and insertions
    // only add: endpoints-only already holds when that many are inserted
    if (nInserted == nEndpoints) return
    System.arraycopy(inserted0, 0, inserted, 0, inserted.length)
    System.arraycopy(vs0, 0, vs, 0, vs.length)
    System.arraycopy(vt0, 0, vt, 0, vt.length)
    restoreQueries()
    nInserted = nEndpoints
    octree.resetRemaining()
    markEndpoints()
    java.util.Arrays.fill(slotFresh, false)
  }

  private def restoreQueries(): Unit = {
    var qi = 0
    while (qi < workload.length) {
      System.arraycopy(inBox0(qi), 0, inBox(qi), 0, db.length)
      qi += 1
    }
    System.arraycopy(rsSize0, 0, rsSize, 0, rsSize.length)
    System.arraycopy(matched0, 0, matched, 0, matched.length)
  }

  private def markEndpoints(): Unit = {
    var ti = 0
    while (ti < db.length) {
      Model.endpoints(db(ti).length).foreach(pi => octree.markInserted(db(ti).points(pi)))
      ti += 1
    }
  }

  /** Insert point `pi` of trajectory `ti` into D'. Returns false if it was
    * already inserted. Updates the octree's remaining counters, the cached
    * values of the points whose anchor segment changed, and the incremental
    * F1 state of every workload query.
    */
  def insertPoint(ti: Int, pi: Int): Boolean = {
    val f = pos(ti)(pi)
    if (inserted(f)) return false
    val a = prevAnchor(ti, pi)
    val b = nextAnchor(ti, pi)
    if (a >= 0) refresh(ti, a, pi)
    if (b < db(ti).length) refresh(ti, pi, b)
    record(ti, pi, f)
    true
  }

  /** Put point `pi` of trajectory `ti`, at flat index `f`, into D': its flag,
    * its slot's cache, the octree's remaining counts and the query state.
    */
  private def record(ti: Int, pi: Int, f: Int): Unit = {
    inserted(f) = true
    slotFresh(slotOf(f)) = false
    nInserted += 1
    val p = db(ti).points(pi)
    octree.markInserted(p)
    var qi = 0
    while (qi < workload.length) {
      if (workload(qi).contains(p) && !inBox(qi)(ti)) {
        inBox(qi)(ti) = true
        rsSize(qi) += 1
        if (gt(qi)(ti)) matched(qi) += 1
      }
      qi += 1
    }
  }

  /** Nearest inserted index of trajectory `ti` before `pi`, or -1. */
  private def prevAnchor(ti: Int, pi: Int): Int = {
    val ps = pos(ti)
    var a = pi - 1
    while (a >= 0 && !inserted(ps(a))) a -= 1
    a
  }

  /** Nearest inserted index of trajectory `ti` after `pi`, or its length. */
  private def nextAnchor(ti: Int, pi: Int): Int = {
    val ps = pos(ti)
    var b = pi + 1
    while (b < ps.length && !inserted(ps(b))) b += 1
    b
  }

  /** Recompute the cached values of the points strictly between anchors `a` and `b`. */
  private def refresh(ti: Int, a: Int, b: Int): Unit = {
    val pts = db(ti).points; val ps = pos(ti)
    val pa = pts(a); val pb = pts(b)
    var i = a + 1
    while (i < b) {
      val f = ps(i)
      vs(f) = ErrorMeasures.sed(pa, pb, pts(i))
      vt(f) = temporalValue(pa, pb, pts(i))
      slotFresh(slotOf(f)) = false
      i += 1
    }
  }

  /** Number of points in D'. */
  def insertedCount: Int = nInserted

  /** Mean F1 of the workload on the current D' vs the original D (Eq. 3). */
  def avgF1: Double = {
    if (workload.isEmpty) return 1.0
    var s = 0.0
    var qi = 0
    while (qi < workload.length) {
      s += Quality.f1(matched(qi), rsSize(qi), gtSize(qi))
      qi += 1
    }
    s / workload.length
  }

  /** The QDTS objective term diff(Q(D), Q(D')) = 1 − mean F1. */
  def diff: Double = 1.0 - avgF1

  def result: SimpleDB =
    SimpleDB(db.indices.map(ti => db(ti).id -> keptIndices(ti)).toMap)

  // ---------------- Agent-Cube support ----------------

  /** Sample a start cube at level S, restricted to cubes that still have
    * un-inserted points. The full model samples by the query distribution
    * (the paper's start-level technique; weight Q + 0.5 keeps query-free
    * cubes reachable); the w/o-Agent-Cube ablation samples by the data
    * distribution, exactly as in the paper's Table II setup.
    */
  def sampleStartNode(rng: java.util.Random, byQuery: Boolean = true): OctNode = {
    // two passes over the cubes with points left, without allocating: sum
    // their weights left to right (the bits of `Seq.sum`), then walk them
    var sum = 0.0
    var last = -1
    var i = 0
    while (i < startFrontier.length) {
      if (startFrontier(i).remaining > 0) { sum += startWeight(startFrontier(i), byQuery); last = i }
      i += 1
    }
    require(last >= 0, "no un-inserted points left")
    var u = rng.nextDouble() * sum
    i = nextStart(0)
    var w = startWeight(startFrontier(i), byQuery)
    while (i < last && u > w) {
      u -= w
      i = nextStart(i + 1)
      w = startWeight(startFrontier(i), byQuery)
    }
    startFrontier(i)
  }

  /** Sampling weight of start cube `n`. */
  private def startWeight(n: OctNode, byQuery: Boolean): Double =
    if (byQuery)
      // smoothed estimate of the query density: empirical per-cube query
      // count plus the expected count under a data prior (the raw counts of
      // a 100-query workload are too noisy to sample from directly)
      n.q + (n.nPoints / math.max(octree.root.nPoints, 1).toDouble) * workload.length
    else n.nPoints.toDouble

  /** The first start cube from `i` on that has points left. */
  private def nextStart(from: Int): Int = {
    var i = from
    while (startFrontier(i).remaining == 0) i += 1
    i
  }

  /** Agent-Cube state (Eq. 4): the 8 children's trajectory-count and
    * query-count ratios. A leaf yields the zero state.
    */
  def cubeState(node: OctNode): Array[Double] = {
    val s = new Array[Double](16)
    if (node.isLeaf) return s
    val m = math.max(node.m, 1).toDouble
    val q = math.max(node.q, 1).toDouble
    var c = 0
    while (c < 8) {
      s(2 * c) = node.children(c).m / m
      s(2 * c + 1) = node.children(c).q / q
      c += 1
    }
    s
  }

  /** Valid actions at a cube: descend into children that still have
    * un-inserted points (actions 0–7), or stop (action 8 — the paper's a=9).
    */
  def cubeMask(node: OctNode): Array[Boolean] = {
    val mask = new Array[Boolean](9)
    mask(8) = true
    if (!node.isLeaf) {
      var c = 0
      while (c < 8) { mask(c) = node.children(c).remaining > 0; c += 1 }
    }
    mask
  }

  // ---------------- Agent-Point support ----------------

  /** A candidate insertion: the point of trajectory `trajIdx` (index into db)
    * with the maximum v_s among the trajectory's un-inserted points in the
    * cube (Eq. 7). `vs`/`vt` are the raw spatial/temporal values of Eq. 6.
    */
  final case class Candidate(trajIdx: Int, ptIdx: Int, vs: Double, vt: Double)

  /** Per-trajectory best candidates in cube `node`, sorted by descending v_s,
    * truncated to K (Eq. 8). Empty only if the cube has no un-inserted points.
    * Ties: within a trajectory the earliest point in `Octree.flat` order wins;
    * across trajectories the lower `trajIdx` comes first.
    */
  def candidates(node: OctNode): Array[Candidate] = {
    val cube = if (node.hi > node.lo) slotCube(slotOf(node.lo)) else -1
    val nTouched = if (cube >= 0 && (startFrontier(cube) eq node)) gatherCube(cube) else gatherRange(node)
    // insert each trajectory into the sorted top-K slots; `ranksBefore` is a
    // strict total order, so this is the first K of the full sort, whatever
    // the order of `touched`
    val k = params.k
    var nTop = 0
    var j = 0
    while (j < nTouched) {
      val t = touched(j)
      if (nTop < k || (k > 0 && ranksBefore(t, top(k - 1)))) {
        var s = math.min(nTop, k - 1)
        while (s > 0 && ranksBefore(t, top(s - 1))) { top(s) = top(s - 1); s -= 1 }
        top(s) = t
        if (nTop < k) nTop += 1
      }
      j += 1
    }
    val out = Array.tabulate(nTop) { s =>
      val f = best(top(s))
      Candidate(top(s), Octree.ptOf(octree.flat(f)), vs(f), vt(f))
    }
    j = 0
    while (j < nTouched) { best(touched(j)) = -1; j += 1 }
    out
  }

  /** Fill `best` and `touched` from one pass over `node`'s `[lo, hi)`;
    * returns the number of trajectories touched.
    */
  private def gatherRange(node: OctNode): Int = {
    var nTouched = 0
    var i = node.lo
    while (i < node.hi) {
      if (!inserted(i)) {
        val ti = trajF(i)
        val b = best(ti)
        // an earlier point stays unless it is not >= the new one: the
        // reference scan's keep test, NaN included
        if (b < 0) { best(ti) = i; touched(nTouched) = ti; nTouched += 1 }
        else if (!(vs(b) >= vs(i))) best(ti) = i
      }
      i += 1
    }
    nTouched
  }

  /** Fill `best` and `touched` from start cube `c`'s slots, rescanning the
    * stale ones; returns the number of trajectories touched.
    */
  private def gatherCube(c: Int): Int = {
    var nTouched = 0
    var s = cubeSlots(c)
    while (s < cubeSlots(c + 1)) {
      if (!slotFresh(s)) { slotBest(s) = scanSlot(s); slotFresh(s) = true }
      val b = slotBest(s)
      if (b >= 0) { best(trajF(b)) = b; touched(nTouched) = trajF(b); nTouched += 1 }
      s += 1
    }
    nTouched
  }

  /** Best un-inserted point of slot `s` (-1 if none), by `gatherRange`'s
    * keep test over the slot's flat indices in ascending order.
    */
  private def scanSlot(s: Int): Int = {
    var b = -1
    var j = slotLo(s)
    while (j < slotLo(s + 1)) {
      val f = slotPts(j)
      if (!inserted(f) && (b < 0 || !(vs(b) >= vs(f)))) b = f
      j += 1
    }
    b
  }

  /** Candidate order of trajectories `a` and `b` by their best points: (−v_s, trajIdx). */
  private def ranksBefore(a: Int, b: Int): Boolean = {
    val c = java.lang.Double.compare(-vs(best(a)), -vs(best(b)))
    c < 0 || (c == 0 && a < b)
  }

  /** The from-scratch scan `candidates` replaces: every point of the cube,
    * values recomputed by `pointValues`. Kept as the reference the
    * differential tests compare against.
    */
  private[core] def candidatesReference(node: OctNode): Array[Candidate] = {
    val best = scala.collection.mutable.HashMap.empty[Int, Candidate]
    val it = octree.pointsIn(node)
    while (it.hasNext) {
      val (ti, pi) = it.next()
      if (!isInserted(ti, pi)) {
        val (pvs, pvt) = pointValues(ti, pi)
        best.get(ti) match {
          case Some(c) if c.vs >= pvs => ()
          case _                      => best(ti) = Candidate(ti, pi, pvs, pvt)
        }
      }
    }
    best.values.toArray.sortBy(c => (-c.vs, c.trajIdx)).take(params.k)
  }

  /** (v_s, v_t) of Eq. 6: v_s is the SED of the point w.r.t. its current
    * anchor segment in D' (the kept points immediately before and after it);
    * v_t is the time difference to the spatially closest point on that anchor.
    * Computed from scratch; `candidates` reads the cached equivalent.
    */
  def pointValues(ti: Int, pi: Int): (Double, Double) = {
    val pts = db(ti).points
    // endpoints are always kept, and pi itself is not, so both exist
    val pa = pts(prevAnchor(ti, pi)); val pb = pts(nextAnchor(ti, pi)); val p = pts(pi)
    (ErrorMeasures.sed(pa, pb, p), temporalValue(pa, pb, p))
  }

  /** v_t of `p` on anchor segment (pa, pb). */
  private def temporalValue(pa: Point, pb: Point, p: Point): Double = {
    val dx = pb.x - pa.x; val dy = pb.y - pa.y
    val len2 = dx * dx + dy * dy
    val u = if (len2 == 0) 0.0
            else math.max(0.0, math.min(1.0, ((p.x - pa.x) * dx + (p.y - pa.y) * dy) / len2))
    val tClosest = pa.t + u * (pb.t - pa.t)
    math.abs(p.t - tClosest)
  }

  /** Agent-Point state (Eq. 8): the K candidates' (v_s, v_t), normalised by
    * the cube's spatial diagonal and temporal extent (the paper uses batch
    * normalisation for the same purpose); zero-padded and masked when the
    * cube holds fewer than K trajectories.
    */
  def pointState(node: OctNode, cands: Array[Candidate]): (Array[Double], Array[Boolean]) = {
    val s = new Array[Double](2 * params.k)
    val mask = new Array[Boolean](params.k)
    val diag = math.max(node.box.spatialDiag, 1e-9)
    val text = math.max(node.box.tExtent, 1e-9)
    var i = 0
    while (i < cands.length && i < params.k) {
      s(2 * i) = cands(i).vs / diag
      s(2 * i + 1) = cands(i).vt / text
      mask(i) = true
      i += 1
    }
    (s, mask)
  }

  /** Kept indices of trajectory `ti`, ascending. */
  private[core] def keptIndices(ti: Int): Array[Int] =
    pos(ti).indices.filter(isInserted(ti, _)).toArray

  /** The cached (v_s, v_t) of a point (test support). */
  private[core] def cachedValues(ti: Int, pi: Int): (Double, Double) = {
    val f = pos(ti)(pi)
    (vs(f), vt(f))
  }

  private[core] def isInserted(ti: Int, pi: Int): Boolean = inserted(pos(ti)(pi))

  /** The ground truth, `inBox`, `rsSize` and `matched` (test support). */
  private[core] def queryState: (Seq[Seq[Boolean]], Seq[Seq[Boolean]], Seq[Int], Seq[Int]) =
    (gt.toSeq.map(_.toSeq), inBox.toSeq.map(_.toSeq), rsSize.toSeq, matched.toSeq)
}
