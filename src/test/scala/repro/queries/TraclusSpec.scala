package repro.queries

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}
import repro.core.{Point, Traj}
import repro.data.TrajGen
import repro.queries.Traclus.Seg

/** TRACLUS-lite clustering tests: partitioning, segment distance, DBSCAN,
  * and the pairs result set.
  */
class TraclusSpec extends SparkSpec with PropSupport {

  test("characteristic points of a straight line are its endpoints") {
    val tr = Traj(0, Array.tabulate(10)(i => Point(i, 0, i)))
    assert(Traclus.characteristicPoints(tr, tol = 0.1).toSeq === Seq(0, 9))
  }

  test("characteristic points keep a sharp corner") {
    val pts = Array.tabulate(11)(i =>
      if (i <= 5) Point(i, 0, i) else Point(5, i - 5.0, i))
    val cp = Traclus.characteristicPoints(Traj(0, pts), tol = 0.1).toSeq
    assert(cp.contains(5))
  }

  test("characteristic points of short trajectories are all points") {
    assert(Traclus.characteristicPoints(Traj(0, Array(Point(0, 0, 0))), 1.0).toSeq === Seq(0))
    assert(Traclus.characteristicPoints(
      Traj(0, Array(Point(0, 0, 0), Point(1, 1, 1))), 1.0).toSeq === Seq(0, 1))
  }

  test("partition emits segments between consecutive characteristic points") {
    val tr = Traj(7, Array.tabulate(10)(i => Point(i * 10.0, 0, i)))
    val segs = Traclus.partition(Array(tr), tol = 0.5)
    assert(segs.length === 1)
    assert(segs(0).trajId === 7 && segs(0).a.x === 0.0 && segs(0).b.x === 90.0)
  }

  test("partition drops zero-length segments") {
    val tr = Traj(0, Array(Point(0, 0, 0), Point(0, 0, 1)))
    assert(Traclus.partition(Array(tr), 0.1).isEmpty)
  }

  test("segment distance of identical segments is 0") {
    val s = Seg(0, Point(0, 0, 0), Point(10, 0, 0))
    assert(Traclus.segDist(s, s) === 0.0)
  }

  test("segment distance is symmetric (longer segment is the reference)") {
    val s1 = Seg(0, Point(0, 0, 0), Point(10, 0, 0))
    val s2 = Seg(1, Point(2, 1, 0), Point(8, 1, 0))
    assert(Traclus.segDist(s1, s2) === Traclus.segDist(s2, s1))
  }

  test("parallel nearby segments are closer than distant ones") {
    val s = Seg(0, Point(0, 0, 0), Point(10, 0, 0))
    val near = Seg(1, Point(0, 1, 0), Point(10, 1, 0))
    val far = Seg(2, Point(0, 100, 0), Point(10, 100, 0))
    assert(Traclus.segDist(s, near) < Traclus.segDist(s, far))
  }

  test("perpendicular segments pay the angular penalty") {
    val s = Seg(0, Point(0, 0, 0), Point(10, 0, 0))
    val par = Seg(1, Point(0, 1, 0), Point(10, 1, 0))
    val perp = Seg(2, Point(5, 1, 0), Point(5, 11, 0))
    assert(Traclus.segDist(s, perp) > Traclus.segDist(s, par))
  }

  test("DBSCAN groups dense parallel bundles and flags isolated segments as noise") {
    val bundle = Array.tabulate(6)(i => Seg(i, Point(0, i * 2.0, 0), Point(100, i * 2.0, 0)))
    val lone = Seg(99, Point(5000, 5000, 0), Point(5100, 5000, 0))
    val cids = Traclus.dbscan(bundle :+ lone, eps = 30, minLns = 3)
    assert(cids.take(6).toSet.size === 1 && cids(0) >= 0)
    assert(cids.last === -1)
  }

  test("DBSCAN with impossible minLns yields all noise") {
    val segs = Array.tabulate(3)(i => Seg(i, Point(0, i * 1000.0, 0), Point(10, i * 1000.0, 0)))
    assert(Traclus.dbscan(segs, eps = 1, minLns = 5).forall(_ === -1))
  }

  test("clusterPairs returns co-clustered trajectory pairs") {
    // two bundles of 3 trajectories each, far apart
    def mk(id: Long, y: Double) = Traj(id, Array.tabulate(6)(i => Point(i * 100.0, y, i)))
    val db = Array(mk(0, 0), mk(1, 5), mk(2, 10), mk(3, 100000), mk(4, 100005), mk(5, 100010))
    val pairs = Traclus.clusterPairs(db, tol = 1.0, eps = 100, minLns = 2)
    val expected = Set((0L, 1L), (0L, 2L), (1L, 2L), (3L, 4L), (3L, 5L), (4L, 5L))
    assert(pairs === expected)
  }

  test("clusterPairs of an empty database is empty") {
    assert(Traclus.clusterPairs(Array.empty, 1.0, 10, 2) === Set.empty)
  }

  // --- the pruned DBSCAN against the naive all-pairs scan ---

  /** Scale of the generated bundles: eps values near it sit on the boundary. */
  private val unit = 10.0

  /** Random segment sets: bundles of near-parallel segments offset by up to
    * 2.5 units sideways or end to end (box gaps on both sides of eps and
    * 2·eps), plus duplicates, equal-length integer segments, zero-length and
    * sub-1e-6 segments, and NaN or infinite coordinates.
    */
  private val segSets: Gen[Array[Seg]] = for {
    seed <- Gen.choose(0L, Long.MaxValue)
    n <- Gen.chooseNum(0, 60)
    origin <- Gen.oneOf(0.0, 1e4, -3.7e5)
  } yield {
    val rng = new java.util.Random(seed)
    def u(lo: Double, hi: Double) = lo + (hi - lo) * rng.nextDouble()
    val out = scala.collection.mutable.ArrayBuffer.empty[Seg]
    var i = 0
    while (i < n) {
      val x0 = origin + u(-6, 6) * unit; val y0 = origin + u(-6, 6) * unit
      val th = u(0, 2 * math.Pi); val len = u(0.2, 4) * unit
      val members = 1 + rng.nextInt(6)
      var k = 0
      while (k < members && i < n) {
        val t = th + u(-0.3, 0.3) * (if (rng.nextBoolean()) 1 else 0)
        val l = len * u(0.7, 1.3)
        val r = u(0, 2.5) * unit; val side = u(0, 2 * math.Pi)
        val (ox, oy) = rng.nextInt(3) match {
          case 0 => (r * math.cos(side), r * math.sin(side))                  // sideways
          case 1 => ((len + r) * math.cos(th), (len + r) * math.sin(th))      // end to end
          case _ => (0.0, 0.0)
        }
        val ax = x0 + ox; val ay = y0 + oy
        val seg = rng.nextInt(12) match {
          case 0 if i > 0 => out(rng.nextInt(i)).copy(trajId = i) // duplicate
          case 1 => // integer coordinates: equal lengths for equal (dx, dy)
            val ix = math.rint(ax); val iy = math.rint(ay)
            Seg(i, Point(ix, iy, 0), Point(ix + 3 * unit, iy + 4 * unit, 0))
          case 2 => Seg(i, Point(ax, ay, 0), Point(ax, ay, 0))
          case 3 => Seg(i, Point(ax, ay, 0), Point(ax + 5e-7, ay - 3e-7, 0))
          case 4 if rng.nextInt(4) == 0 =>
            val bad = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)(rng.nextInt(3))
            if (rng.nextBoolean()) Seg(i, Point(bad, ay, 0), Point(ax, ay + l, 0))
            else Seg(i, Point(ax, ay, 0), Point(ax + l, bad, 0))
          case _ => Seg(i, Point(ax, ay, 0), Point(ax + l * math.cos(t), ay + l * math.sin(t), 0))
        }
        out += seg
        i += 1; k += 1
      }
    }
    out.toArray
  }

  private val epsValues: Gen[Double] = Gen.oneOf(
    Gen.const(0.0), Gen.const(-1.0), Gen.const(Double.NaN), Gen.const(1e300),
    Gen.const(Double.PositiveInfinity), Gen.const(unit), Gen.choose(0.3 * unit, 2.5 * unit))

  private def boxGap(s1: Seg, s2: Seg): Double = {
    def gap(a1: Double, b1: Double, a2: Double, b2: Double) =
      math.max(0.0, math.max(math.min(a2, b2) - math.max(a1, b1), math.min(a1, b1) - math.max(a2, b2)))
    math.hypot(gap(s1.a.x, s1.b.x, s2.a.x, s2.b.x), gap(s1.a.y, s1.b.y, s2.a.y, s2.b.y))
  }

  /** `dbscan`, and its rows scored in 1, 2, 3, 7 and `n` chunks, equal
    * `dbscanReference` on `segs` (small sets stay under the size at which
    * `dbscan` splits rows by itself).
    */
  private def assertChunked(segs: Array[Seg], eps: Double, minLns: Int, ctx: String): Unit = {
    val ref = Traclus.dbscanReference(segs, eps, minLns).toSeq
    assert(Traclus.dbscan(segs, eps, minLns).toSeq === ref, ctx)
    for (chunks <- Seq(1, 2, 3, 7, math.max(1, segs.length)))
      assert(Traclus.dbscan(segs, eps, minLns, chunks).toSeq === ref, s"$ctx chunks=$chunks")
  }

  test("dbscan equals the naive all-pairs dbscanReference on random segment sets") {
    var between = 0 // pairs with a box gap in (eps, 2·eps]
    var farNeighbours = 0 // neighbours with a box gap above eps / 2
    forAllN3(segSets, epsValues, Gen.oneOf(0, 1, 2, 3, 5), 400) { (segs, eps, minLns) =>
      assertChunked(segs, eps, minLns, s"eps=$eps minLns=$minLns n=${segs.length}")
      if (eps > 0 && eps < unit * 10)
        for (s1 <- segs; s2 <- segs) {
          val g = boxGap(s1, s2)
          if (g > eps && g <= 2 * eps) between += 1
          if (g > eps / 2 && Traclus.segDist(s1, s2) <= eps) farNeighbours += 1
        }
    }
    assert(between > 1000 && farNeighbours > 100, s"between=$between farNeighbours=$farNeighbours")
  }

  test("clusterPairs equals the naive grouping on generated databases") {
    val bench = repro.exp.Experiments.benchProfile.copy(avgLen = 300)
    for ((profile, seed) <- Seq(bench -> 3L, TrajGen.chengdu -> 4L); eps <- Seq(700.0, 1500.0)) {
      val db = TrajGen.genLocal(profile, 80, seed)
      val segs = Traclus.partition(db, tol = 100.0)
      val ref = Traclus.dbscanReference(segs, eps, minLns = 3)
      assertChunked(segs, eps, 3, s"${profile.name} eps=$eps")
      val pairs = Traclus.clusterPairs(db, 100.0, eps, 3)
      assert(pairs === Traclus.coClustered(segs, ref))
      assert(pairs.nonEmpty, s"${profile.name} eps=$eps")
    }
  }

  // --- the grid of dbscan on spread segment sets ---

  /** Spread segment sets, with the unit their offsets are drawn in, in one
    * of three modes:
    *  - `scatter`: bundles of near-parallel segments with centres over 20-40
    *    cut-offs of eps = 2.5 units on each axis, duplicates, and segments 5-15
    *    cut-offs long that span many cells;
    *  - `huge`: the same around x, y = ±1e300 or ±1e150, in a unit of 1e-10
    *    of that (the cut-off's 1e-9 margin of the largest coordinate is then
    *    10 units). Near 1e300 the squared cut-off overflows and the grid has
    *    one cell, except for eps = NaN (cut-off 0);
    *  - `identical`: one segment, or one point, repeated.
    */
  private val spreadSets: Gen[(String, Double, Array[Seg])] = for {
    seed <- Gen.choose(0L, Long.MaxValue)
    n <- Gen.chooseNum(16, 150)
    mode <- Gen.frequency(6 -> "scatter", 2 -> "huge", 1 -> "identical")
  } yield {
    val rng = new java.util.Random(seed)
    def u(lo: Double, hi: Double) = lo + (hi - lo) * rng.nextDouble()
    // one origin per case; a third of the huge cases put each bundle at ±o
    val o =
      if (mode == "huge") Seq(1e300, 1e150)(rng.nextInt(2)) * (if (rng.nextBoolean()) 1 else -1)
      else Seq(0.0, 1e4, -3.7e5)(rng.nextInt(3))
    val cu = if (mode == "huge") math.abs(o) * 1e-10 else unit
    val side = u(20, 40) * 5 * cu
    val mixed = mode == "huge" && rng.nextInt(3) == 0
    def origin() = if (mixed && rng.nextBoolean()) -o else o
    val out = scala.collection.mutable.ArrayBuffer.empty[Seg]
    if (mode == "identical") {
      val (x, y) = (origin() + u(-6, 6) * cu, origin() + u(-6, 6) * cu)
      val l = if (rng.nextBoolean()) 0.0 else u(0.2, 4) * cu
      while (out.length < n) out += Seg(out.length, Point(x, y, 0), Point(x + l, y - l, 0))
    }
    while (out.length < n) {
      val x0 = origin() + u(-0.5, 0.5) * side; val y0 = origin() + u(-0.5, 0.5) * side
      val th = u(0, 2 * math.Pi); val len = u(0.2, 4) * cu
      val members = 1 + rng.nextInt(6)
      var k = 0
      while (k < members && out.length < n) {
        val i = out.length
        val r = u(0, 2.5) * cu; val off = u(0, 2 * math.Pi)
        val ax = x0 + r * math.cos(off); val ay = y0 + r * math.sin(off)
        out += (rng.nextInt(10) match {
          case 0 if i > 0 => out(rng.nextInt(i)).copy(trajId = i)
          case 1 =>
            val l = u(5, 15) * 5 * cu; val t = u(0, 2 * math.Pi)
            Seg(i, Point(ax, ay, 0), Point(ax + l * math.cos(t), ay + l * math.sin(t), 0))
          case _ =>
            val t = th + u(-0.3, 0.3); val l = len * u(0.7, 1.3)
            Seg(i, Point(ax, ay, 0), Point(ax + l * math.cos(t), ay + l * math.sin(t), 0))
        })
        k += 1
      }
    }
    (mode, cu, out.toArray)
  }

  /** The smallest coordinate in [lo, hi] that `cell` puts in cell `k` or
    * later, by bisection: a cell boundary, exact to the last bit.
    */
  private def boundary(cell: Double => Int, k: Int, lo0: Double, hi0: Double): Double = {
    var lo = lo0; var hi = hi0
    var mid = lo * 0.5 + hi * 0.5
    while (mid != lo && mid != hi) {
      if (cell(mid) >= k) hi = mid else lo = mid
      mid = lo * 0.5 + hi * 0.5
    }
    hi
  }

  test("dbscan equals dbscanReference on spread, long, boundary, huge and identical segment sets") {
    var fourByFour = 0 // cases with at least 4 cells on each axis
    var onBoundary = 0 // added box edges exactly on a cell boundary
    var spanning = 0 // segments over at least 3 cells on an axis
    var hugeCells = 0 // huge cases with at least 4 cells on each axis
    val modes = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    forAllN3(spreadSets, epsValues, Gen.oneOf(0, 1, 2, 3, 5), 300) { case ((mode, cu, base), eps0, minLns) =>
      // eps in the case's unit; 1e300, infinities, NaN, 0 and -1 as they are
      val eps = if (math.abs(eps0) > 1 && math.abs(eps0) < 1e299) eps0 / unit * cu else eps0
      val rng = new java.util.Random(base.length * 31L + minLns)
      def u(lo: Double, hi: Double) = lo + (hi - lo) * rng.nextDouble()
      // pairs of segments whose boxes end just before and start exactly on a
      // boundary of the grid of `base`, inside its extent
      val g0 = new Traclus.SegGrid(new Traclus.SegArrays(base), eps)
      val (xLo, xHi) = (base.map(s => math.min(s.a.x, s.b.x)).min, base.map(s => math.max(s.a.x, s.b.x)).max)
      val (yLo, yHi) = (base.map(s => math.min(s.a.y, s.b.y)).min, base.map(s => math.max(s.a.y, s.b.y)).max)
      val added = scala.collection.mutable.ArrayBuffer.empty[(Boolean, Double)]
      for ((isX, nc) <- Seq((true, g0.nx), (false, g0.ny)) if nc >= 2; _ <- 0 until 3) {
        val (lo, hi) = if (isX) (xLo, xHi) else (yLo, yHi)
        val v = boundary(if (isX) g0.cellX else g0.cellY, 1 + rng.nextInt(nc - 1), lo, hi)
        added += ((isX, v))
      }
      val extra = added.zipWithIndex.flatMap { case ((isX, v), k) =>
        val below = math.nextDown(v)
        val (lo, hi) = if (isX) (xLo, xHi) else (yLo, yHi)
        val (oLo, oHi) = if (isX) (yLo, yHi) else (xLo, xHi)
        val d = math.min(u(0, 2) * cu, math.min(hi - v, below - lo))
        val o = u(oLo, oHi); val o2 = math.min(o + u(0, 2) * cu, oHi)
        def pt(along: Double, across: Double) = if (isX) Point(along, across, 0) else Point(across, along, 0)
        val id = base.length + 2 * k
        Seq(Seg(id, pt(v, o), pt(v + d, o2)), Seg(id + 1, pt(below - d, o2), pt(below, o)))
      }
      val segs = base ++ extra
      assertChunked(segs, eps, minLns, s"mode=$mode eps=$eps minLns=$minLns n=${segs.length}")
      val g = new Traclus.SegGrid(new Traclus.SegArrays(segs), eps)
      if (g.nx >= 4 && g.ny >= 4) fourByFour += 1
      onBoundary += added.count { case (isX, v) =>
        val cell = if (isX) g.cellX _ else g.cellY _
        cell(v) == cell(math.nextDown(v)) + 1
      }
      spanning += segs.count { s =>
        g.cellX(math.max(s.a.x, s.b.x)) - g.cellX(math.min(s.a.x, s.b.x)) >= 2 ||
          g.cellY(math.max(s.a.y, s.b.y)) - g.cellY(math.min(s.a.y, s.b.y)) >= 2
      }
      if (mode == "huge" && g.nx >= 4 && g.ny >= 4) hugeCells += 1
      modes(mode) += 1
    }
    assert(fourByFour > 100 && onBoundary > 500 && spanning > 400 && hugeCells > 15 && modes("identical") > 15,
      s"fourByFour=$fourByFour onBoundary=$onBoundary spanning=$spanning hugeCells=$hugeCells modes=$modes")
  }

  /** `segDist` as it was written before the primitive kernel. */
  private def segDistInline(s1: Seg, s2: Seg): Double = {
    val (li, lj) = if (s1.len >= s2.len) (s1, s2) else (s2, s1)
    val dx = li.b.x - li.a.x; val dy = li.b.y - li.a.y
    val len2 = math.max(dx * dx + dy * dy, 1e-12)
    def proj(p: Point): (Double, Double) = {
      val u = ((p.x - li.a.x) * dx + (p.y - li.a.y) * dy) / len2
      val px = li.a.x + u * dx; val py = li.a.y + u * dy
      (u, math.hypot(p.x - px, p.y - py))
    }
    val (u1, l1) = proj(lj.a); val (u2, l2) = proj(lj.b)
    val dPerp = if (l1 + l2 == 0) 0.0 else (l1 * l1 + l2 * l2) / (l1 + l2)
    val liLen = math.sqrt(len2)
    val par1 = math.min(math.abs(u1), math.abs(u1 - 1)) * liLen
    val par2 = math.min(math.abs(u2), math.abs(u2 - 1)) * liLen
    val dPar = math.min(par1, par2)
    val dAng = {
      import repro.traj.ErrorMeasures.{angle, angleDiff}
      (angle(li.a, li.b), angle(lj.a, lj.b)) match {
        case (Some(t1), Some(t2)) =>
          val th = angleDiff(t1, t2)
          if (th >= math.Pi / 2) lj.len else lj.len * math.sin(th)
        case _ => 0.0
      }
    }
    dPerp + dPar + dAng
  }

  test("segDist has the same bits as the formula it replaced") {
    forAllN(segSets, 200) { segs =>
      for (s1 <- segs; s2 <- segs) {
        val (got, want) = (Traclus.segDist(s1, s2), segDistInline(s1, s2))
        assert(java.lang.Double.doubleToLongBits(got) === java.lang.Double.doubleToLongBits(want),
          s"$s1 $s2: $got vs $want")
      }
    }
  }

  test("segDist is not bit-symmetric for equal lengths, and dbscan keeps the argument order") {
    // equal lengths: the first argument is the reference segment
    val s1 = Seg(0, Point(0, 0, 0), Point(30, 40, 0))
    val s2 = Seg(1, Point(7, -3, 0), Point(7 + 40, -3 + 30, 0))
    assert(s1.len === s2.len)
    assert(Traclus.segDist(s1, s2) !== Traclus.segDist(s2, s1))
    val eps = math.min(Traclus.segDist(s1, s2), Traclus.segDist(s2, s1))
    // with a shifted copy of one of them, only one order makes a core segment
    val s2Up = Seg(4, Point(7, -1, 0), Point(47, 29, 0))
    val s1Up = Seg(5, Point(0, 1, 0), Point(30, 41, 0))
    for (segs <- Seq(Array(s1, s2, s1.copy(trajId = 2), s2.copy(trajId = 3)), Array(s1, s2, s2Up), Array(s2, s1, s1Up)))
      assert(Traclus.dbscan(segs, eps, 3).toSeq === Traclus.dbscanReference(segs, eps, 3).toSeq)
    assert(Traclus.dbscanReference(Array(s1, s2, s2Up), eps, 3).toSeq === Seq(-1, -1, -1))
    assert(Traclus.dbscanReference(Array(s2, s1, s1Up), eps, 3).toSeq === Seq(0, 0, 0))
  }
}
