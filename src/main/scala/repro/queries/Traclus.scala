package repro.queries

import scala.collection.mutable
import repro.Par
import repro.core.{Point, Traj}

/** TRACLUS partition-and-group trajectory clustering (Lee et al., SIGMOD'07) —
  * the clustering operator of the paper's evaluation.
  *
  *  - Partition: characteristic points are selected per trajectory. The
  *    original uses MDL; we use Douglas–Peucker with a perpendicular tolerance,
  *    which selects characteristic points at matched tolerances (substitution
  *    documented in DESIGN.md).
  *  - Group: DBSCAN over the resulting line segments using the TRACLUS
  *    segment distance (perpendicular + parallel + angular components).
  *  - Output: clusters of segments; the evaluation measure is the pairs-F1
  *    over trajectory pairs sharing a cluster.
  */
object Traclus {

  /** A directed line segment of trajectory `trajId`. */
  final case class Seg(trajId: Long, a: Point, b: Point) {
    def len: Double = a.distTo(b)
  }

  /** Douglas–Peucker characteristic points (indices) with tolerance `tol`. */
  def characteristicPoints(tr: Traj, tol: Double): Array[Int] = {
    val n = tr.length
    if (n <= 2) return Array.tabulate(n)(identity)
    val keep = mutable.SortedSet(0, n - 1)
    val stack = mutable.Stack((0, n - 1))
    while (stack.nonEmpty) {
      val (a, b) = stack.pop()
      if (b - a > 1) {
        var worst = -1.0; var wi = -1
        var i = a + 1
        while (i < b) {
          val d = repro.traj.ErrorMeasures.ped(tr.points(a), tr.points(b), tr.points(i))
          if (d > worst) { worst = d; wi = i }
          i += 1
        }
        if (worst > tol) { keep += wi; stack.push((a, wi)); stack.push((wi, b)) }
      }
    }
    keep.toArray
  }

  /** Partition phase: characteristic segments of every trajectory. Segments
    * shorter than 1 m carry no direction information and are dropped.
    */
  def partition(db: Array[Traj], tol: Double): Array[Seg] =
    db.flatMap { tr =>
      val cp = characteristicPoints(tr, tol)
      cp.iterator.zip(cp.iterator.drop(1)).map { case (i, j) => Seg(tr.id, tr.points(i), tr.points(j)) }
        .filter(_.len >= 1.0)
        .toArray
    }

  /** TRACLUS distance between two segments: perpendicular + parallel + angular
    * components (Lee et al., Section 3.2). The longer segment is the reference.
    */
  def segDist(s1: Seg, s2: Seg): Double = new SegArrays(Array(s1, s2)).dist(0, 1)

  /** Segments as primitive columns for the grouping phase: endpoints, length
    * (`Seg.len`) and direction (`ErrorMeasures.angle`, `NaN` for a zero-length
    * segment), plus each segment's bounding box. A segment with a non-finite
    * coordinate gets the whole plane as its box, so no box gap excludes it.
    */
  private[queries] final class SegArrays(segs: Array[Seg]) {
    val n: Int = segs.length
    val ax, ay, bx, by, len, ang = new Array[Double](n)
    val minX, maxX, minY, maxY = new Array[Double](n)
    /** Largest finite coordinate magnitude (scale of the rounding error). */
    var scale = 0.0
    for (k <- 0 until n) {
      val s = segs(k)
      ax(k) = s.a.x; ay(k) = s.a.y; bx(k) = s.b.x; by(k) = s.b.y
      len(k) = s.len
      ang(k) = repro.traj.ErrorMeasures.angle(s.a, s.b).getOrElse(Double.NaN)
      val m = math.max(math.max(math.abs(ax(k)), math.abs(ay(k))), math.max(math.abs(bx(k)), math.abs(by(k))))
      if (m < Double.PositiveInfinity) { // false for NaN too
        scale = math.max(scale, m)
        minX(k) = math.min(ax(k), bx(k)); maxX(k) = math.max(ax(k), bx(k))
        minY(k) = math.min(ay(k), by(k)); maxY(k) = math.max(ay(k), by(k))
      } else {
        minX(k) = Double.NegativeInfinity; maxX(k) = Double.PositiveInfinity
        minY(k) = Double.NegativeInfinity; maxY(k) = Double.PositiveInfinity
      }
    }

    /** `segDist` of segments `i` and `j`. */
    def dist(i: Int, j: Int): Double = if (len(i) >= len(j)) ordered(i, j) else ordered(j, i)

    /** Squared gap between the bounding boxes of `i` and `j` (0 if they meet;
      * never NaN, as every box bound is a number or an infinity).
      */
    def boxGap2(i: Int, j: Int): Double = {
      val gx = math.max(0.0, math.max(minX(j) - maxX(i), minX(i) - maxX(j)))
      val gy = math.max(0.0, math.max(minY(j) - maxY(i), minY(i) - maxY(j)))
      gx * gx + gy * gy
    }

    // `li` = segment i (the longer one), `lj` = segment j
    private def ordered(i: Int, j: Int): Double = {
      val dx = bx(i) - ax(i); val dy = by(i) - ay(i)
      val len2 = math.max(dx * dx + dy * dy, 1e-12)
      // (parameter u along li, perpendicular distance) of lj's endpoints
      val u1 = ((ax(j) - ax(i)) * dx + (ay(j) - ay(i)) * dy) / len2
      val l1 = math.hypot(ax(j) - (ax(i) + u1 * dx), ay(j) - (ay(i) + u1 * dy))
      val u2 = ((bx(j) - ax(i)) * dx + (by(j) - ay(i)) * dy) / len2
      val l2 = math.hypot(bx(j) - (ax(i) + u2 * dx), by(j) - (ay(i) + u2 * dy))
      val dPerp = if (l1 + l2 == 0) 0.0 else (l1 * l1 + l2 * l2) / (l1 + l2)
      val liLen = math.sqrt(len2)
      val par1 = math.min(math.abs(u1), math.abs(u1 - 1)) * liLen
      val par2 = math.min(math.abs(u2), math.abs(u2 - 1)) * liLen
      val dPar = math.min(par1, par2)
      val dAng =
        if (ang(i).isNaN || ang(j).isNaN) 0.0
        else {
          val th = repro.traj.ErrorMeasures.angleDiff(ang(i), ang(j))
          if (th >= math.Pi / 2) len(j) else len(j) * math.sin(th)
        }
      dPerp + dPar + dAng
    }
  }

  /** DBSCAN over segments. Returns cluster id per segment (-1 = noise).
    *
    * '''Box cut-off.''' A pair whose bounding boxes are more than `2·eps`
    * apart can never be within `eps`. With `li` the longer segment, `lj`'s
    * endpoints at perpendicular distances `l1, l2` and parallel distances
    * `par1, par2` from `li`:
    *  - `dPerp = (l1² + l2²) / (l1 + l2) >= max(l1, l2) / 2`, and `dPar`,
    *    `dAng` are non-negative;
    *  - endpoint `k` of `lj` lies within `l_k + par_k` of `li`: `l_k` to its
    *    projection on `li`'s line, `par_k` from there to `li`'s nearer end.
    *    Under the `len2` clamp `par_k` is measured with `sqrt(len2)`, which is
    *    at least `li`'s true length, so this still holds;
    *  - taking `k` with the smaller `par_k`, the segments are at most
    *    `max(l1, l2) + dPar <= 2 · segDist` apart, and the box gap is no larger
    *    than the distance between the segments.
    * So `segDist >= box gap / 2`. The cut-off `r` adds a relative margin of
    * 1e-9 of `eps` plus the largest coordinate, far above the kernel's
    * rounding error, and a pair is scored only if `boxGap2 <= r²`.
    *
    * '''Grid.''' Only pairs that can pass that test are looked at:
    * [[SegGrid]] files every finite box under each grid cell it overlaps,
    * and segment `i` scans the cells one step around its own box's cells.
    * Every pair with `boxGap2 <= r²` shares a scanned cell. If `r²` overflows,
    * there is one cell. Otherwise the cell side `s` is at least
    * `max(r·(1 + 1e-6), 1e-150)`. Take the x axis, with `u` the unit
    * roundoff:
    *  - If `a = minX(j) - maxX(i) > 0`, rounding the gap, its square and the
    *    sum gives `a²(1-u)³ <= r²(1+u) + 2^-1074`, so `a/s < 1 - 9e-7`.
    *  - The computed cell coordinate `(x/2 - x0/2) / (s/2)` is monotone in
    *    `x`. For a box bound, inside an extent of at most 2^22 cells, it is
    *    within 1e-9 of the exact `(x - x0) / s`.
    *  - So `minX(j)`'s cell is at most one past `maxX(i)`'s, and
    *    `maxX(j) > maxX(i)` is not in a cell before `minX(i)`'s. The case
    *    `minX(i) > maxX(j)` is the mirror image. If the two x extents meet, a
    *    common point has one cell in both ranges.
    * The same holds on y, so some cell of `j` is scanned. The halved
    * coordinates keep every difference finite. A segment with a non-finite
    * coordinate spans the plane (box gap 0), so it is on the `everywhere`
    * list, a candidate for every segment.
    *
    * '''One pass per pair.''' Each unordered pair `i < j` is scored once, from
    * `i`. `dist(i, j)` takes the longer segment as the reference, so when
    * `len(i) > len(j)` or `len(j) > len(i)`, both orders evaluate the same
    * `ordered` call, and one value decides both directions. With equal
    * lengths, or a NaN length, the two orders take different references
    * (`segDist` is not bit-symmetric there), so both are evaluated.
    *
    * '''Lists.''' Row `i` receives every `i' < i` in increasing order, then
    * itself and its sorted `j > i`. So each row of the compressed list is
    * ascending, and queue order and cluster ids equal `dbscanReference`'s.
    *
    * '''Chunks.''' Rows are independent: each chunk of rows gets its own
    * scratch and edge list, and the lists are sorted into rows in chunk
    * order, which is the order of one serial pass.
    */
  def dbscan(segs: Array[Seg], eps: Double, minLns: Int): Array[Int] =
    dbscan(segs, eps, minLns, Par.chunks(segs.length))

  /** `dbscan` with its rows scored in `chunks` concurrent chunks ([[Par]]);
    * every count gives the same result.
    */
  private[queries] def dbscan(segs: Array[Seg], eps: Double, minLns: Int, chunks: Int): Array[Int] = {
    val g = new SegArrays(segs)
    val n = g.n
    val grid = new SegGrid(g, eps)
    val parts = Par.ranges(n, chunks)(rowEdges(g, grid, eps, _, _))
    // stable counting sort of the edges by row
    val start = new Array[Int](n + 1)
    for (edges <- parts) {
      var k = 0
      while (k < edges.length) { start((edges(k) >>> 32).toInt + 1) += 1; k += 1 }
    }
    var k = 0
    while (k < n) { start(k + 1) += start(k); k += 1 }
    val next = java.util.Arrays.copyOf(start, n)
    val adj = new Array[Int](start(n))
    for (edges <- parts) {
      k = 0
      while (k < edges.length) {
        val row = (edges(k) >>> 32).toInt
        adj(next(row)) = edges(k).toInt
        next(row) += 1
        k += 1
      }
    }
    expand(minLns, start, adj)
  }

  /** The edges (row << 32 | column) that rows `[lo, hi)` of `dbscan` emit,
    * in emission order: for each row `i`, every `(j, i)` with `j > i`, then
    * `(i, i)` if `i` is its own neighbour, then its sorted `(i, j)`.
    */
  private def rowEdges(g: SegArrays, grid: SegGrid, eps: Double, lo: Int, hi: Int): Array[Long] = {
    val n = g.n
    val cut2 = grid.cut2
    var edges = new Array[Long](math.max(16, 2 * (hi - lo)))
    var m = 0
    def emit(row: Int, col: Int): Unit = {
      if (m == edges.length) edges = java.util.Arrays.copyOf(edges, 2 * m)
      edges(m) = (row.toLong << 32) | col
      m += 1
    }
    val seen = Array.fill(n)(-1) // `i` once `j` was a candidate of `i`
    val later = new Array[Int](n) // neighbours `j > i` of the current `i`
    var nLater = 0
    def pair(i: Int, j: Int): Unit =
      if (g.boxGap2(i, j) <= cut2) {
        val li = g.len(i); val lj = g.len(j)
        if (li > lj || lj > li) {
          if (g.dist(i, j) <= eps) { later(nLater) = j; nLater += 1; emit(j, i) }
        } else {
          if (g.dist(i, j) <= eps) { later(nLater) = j; nLater += 1 }
          if (g.dist(j, i) <= eps) emit(j, i)
        }
      }
    var i = lo
    while (i < hi) {
      nLater = 0
      if (grid.finite(i)) {
        val cx1 = math.min(grid.cellX(g.maxX(i)) + 1, grid.nx - 1)
        val cy0 = math.max(grid.cellY(g.minY(i)) - 1, 0)
        val cy1 = math.min(grid.cellY(g.maxY(i)) + 1, grid.ny - 1)
        var cx = math.max(grid.cellX(g.minX(i)) - 1, 0)
        while (cx <= cx1) {
          var c = cx * grid.ny + cy0
          while (c <= cx * grid.ny + cy1) {
            var e = grid.cellStart(c)
            while (e < grid.cellStart(c + 1)) {
              val j = grid.cellSegs(e)
              if (j > i && seen(j) != i) { seen(j) = i; pair(i, j) }
              e += 1
            }
            c += 1
          }
          cx += 1
        }
        for (j <- grid.everywhere if j > i) pair(i, j)
      } else {
        var j = i + 1
        while (j < n) { pair(i, j); j += 1 }
      }
      if (g.dist(i, i) <= eps) emit(i, i)
      java.util.Arrays.sort(later, 0, nLater)
      var k = 0
      while (k < nLater) { emit(i, later(k)); k += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(edges, m)
  }

  /** The box cut-off of `dbscan` at `eps` over the segments of `g`, and a
    * uniform grid over their finite boxes (see `dbscan`). Cells are numbered
    * x-major; cell `c` lists its segments, ascending, in `cellSegs` from
    * `cellStart(c)` until `cellStart(c + 1)`. The side starts at
    * `max(r·(1 + 1e-6), 1e-150)` for the cut-off `r` (infinite if `r²`
    * overflows) and doubles until there are at most `min(#finite, 2^22)`
    * cells holding at most four entries per finite segment, so the grid
    * takes O(n) memory.
    */
  private[queries] final class SegGrid(g: SegArrays, eps: Double) {
    private val cut = 2 * eps + 1e-9 * (2 * math.abs(eps) + g.scale)
    // a negative or NaN cut-off: no pair is within eps, any skip is safe
    private val r = if (cut > 0) cut else 0.0
    /** Squared cut-off: a pair with a larger `boxGap2` is never within eps. */
    val cut2: Double = r * r
    private val n = g.n
    val finite: Array[Boolean] = Array.tabulate(n)(k => g.minX(k) > Double.NegativeInfinity)
    val everywhere: Array[Int] = (0 until n).filter(k => !finite(k)).toArray
    private val nf = n - everywhere.length
    // halved extent of the finite boxes (no difference of halves overflows)
    private var x0, x1, y0, y1 = 0.0
    if (nf > 0) {
      val fs = (0 until n).filter(k => finite(k))
      x0 = fs.map(k => g.minX(k)).min * 0.5; x1 = fs.map(k => g.maxX(k)).max * 0.5
      y0 = fs.map(k => g.minY(k)).min * 0.5; y1 = fs.map(k => g.maxY(k)).max * 0.5
    }
    private val cap = math.max(1, math.min(nf, 1 << 22))
    /** Half the cell side. */
    private var hs =
      if (cut2 < Double.PositiveInfinity) math.max(r * (1 + 1e-6), 1e-150) * 0.5
      else Double.PositiveInfinity
    private def cells(h: Double): Double = math.floor(h / hs) + 1
    private def cell(v: Double, h0: Double, nc: Int): Int =
      math.min(math.max(math.floor((v * 0.5 - h0) / hs).toInt, 0), nc - 1)
    private def entries(nx: Int, ny: Int): Long = {
      var sum = 0L
      for (k <- 0 until n if finite(k))
        sum += (cell(g.maxX(k), x0, nx) - cell(g.minX(k), x0, nx) + 1).toLong *
          (cell(g.maxY(k), y0, ny) - cell(g.minY(k), y0, ny) + 1)
      sum
    }
    while (cells(x1 - x0) * cells(y1 - y0) > cap ||
           entries(cells(x1 - x0).toInt, cells(y1 - y0).toInt) > 4L * nf) hs *= 2
    val nx: Int = cells(x1 - x0).toInt
    val ny: Int = cells(y1 - y0).toInt
    def cellX(x: Double): Int = cell(x, x0, nx)
    def cellY(y: Double): Int = cell(y, y0, ny)

    val cellStart = new Array[Int](nx * ny + 1)
    val cellSegs = new Array[Int](entries(nx, ny).toInt)
    private def forCells(k: Int)(f: Int => Unit): Unit =
      for (cx <- cellX(g.minX(k)) to cellX(g.maxX(k)); cy <- cellY(g.minY(k)) to cellY(g.maxY(k)))
        f(cx * ny + cy)
    for (k <- 0 until n if finite(k)) forCells(k)(c => cellStart(c + 1) += 1)
    for (c <- 0 until nx * ny) cellStart(c + 1) += cellStart(c)
    private val next = java.util.Arrays.copyOf(cellStart, nx * ny)
    for (k <- 0 until n if finite(k)) forCells(k) { c => cellSegs(next(c)) = k; next(c) += 1 }
  }

  /** The naive all-pairs DBSCAN that `dbscan` must equal (tests only). */
  private[queries] def dbscanReference(segs: Array[Seg], eps: Double, minLns: Int): Array[Int] = {
    val n = segs.length
    val lists = Array.tabulate(n)(i => (0 until n).filter(j => segDist(segs(i), segs(j)) <= eps).toArray)
    expand(minLns, lists.scanLeft(0)(_ + _.length), lists.flatten)
  }

  /** DBSCAN cluster expansion over compressed neighbour lists: segment `i`'s
    * neighbours are `adj(start(i))` until `adj(start(i + 1))`.
    */
  private def expand(minLns: Int, start: Array[Int], adj: Array[Int]): Array[Int] = {
    val n = start.length - 1
    val cluster = Array.fill(n)(-2) // -2 unvisited, -1 noise, >=0 cluster id
    // every list is enqueued at most once, so `adj.length` slots suffice
    val queue = new Array[Int](adj.length)
    var head = 0; var tail = 0
    def enqueue(i: Int): Unit = {
      val len = start(i + 1) - start(i)
      System.arraycopy(adj, start(i), queue, tail, len)
      tail += len
    }
    var cid = 0
    var i = 0
    while (i < n) {
      if (cluster(i) == -2) {
        if (start(i + 1) - start(i) < minLns) cluster(i) = -1
        else {
          cluster(i) = cid
          enqueue(i)
          while (head < tail) {
            val j = queue(head); head += 1
            if (cluster(j) == -1) cluster(j) = cid
            if (cluster(j) == -2) {
              cluster(j) = cid
              if (start(j + 1) - start(j) >= minLns) enqueue(j)
            }
          }
          cid += 1
        }
      }
      i += 1
    }
    cluster
  }

  /** Full pipeline: the set of unordered trajectory-id pairs co-clustered in
    * at least one segment cluster — the paper's clustering result set R.
    */
  def clusterPairs(db: Array[Traj], tol: Double, eps: Double, minLns: Int): Set[(Long, Long)] = {
    val segs = partition(db, tol)
    if (segs.isEmpty) return Set.empty
    coClustered(segs, dbscan(segs, eps, minLns))
  }

  /** Unordered trajectory-id pairs sharing a cluster, given per-segment ids. */
  private[queries] def coClustered(segs: Array[Seg], cids: Array[Int]): Set[(Long, Long)] = {
    val byCluster = segs.indices.groupBy(cids).filter(_._1 >= 0)
    val pairs = Set.newBuilder[(Long, Long)]
    for ((_, idxs) <- byCluster) {
      val trajs = idxs.map(i => segs(i).trajId).distinct.sorted
      for (i <- trajs.indices; j <- i + 1 until trajs.length)
        pairs += ((trajs(i), trajs(j)))
    }
    pairs.result()
  }
}
