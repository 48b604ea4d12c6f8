package repro.queries

import scala.collection.mutable
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
    * shorter than `minLen` carry no direction information and are dropped.
    */
  def partition(db: Array[Traj], tol: Double, minLen: Double = 1.0): Array[Seg] =
    db.flatMap { tr =>
      val cp = characteristicPoints(tr, tol)
      cp.iterator.zip(cp.iterator.drop(1)).map { case (i, j) => Seg(tr.id, tr.points(i), tr.points(j)) }
        .filter(_.len >= minLen)
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
  private final class SegArrays(segs: Array[Seg]) {
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
    * Neighbourhoods scan every pair, but skip a pair whose bounding boxes are
    * more than `2·eps` apart, which can never be within `eps`. With `li` the
    * longer segment, `lj`'s endpoints at perpendicular distances `l1, l2` and
    * parallel distances `par1, par2` from `li`:
    *  - `dPerp = (l1² + l2²) / (l1 + l2) >= max(l1, l2) / 2`, and `dPar`,
    *    `dAng` are non-negative;
    *  - endpoint `k` of `lj` lies within `l_k + par_k` of `li`: `l_k` to its
    *    projection on `li`'s line, `par_k` from there to `li`'s nearer end.
    *    Under the `len2` clamp `par_k` is measured with `sqrt(len2)`, which is
    *    at least `li`'s true length, so this still holds;
    *  - taking `k` with the smaller `par_k`, the segments are at most
    *    `max(l1, l2) + dPar <= 2 · segDist` apart, and the box gap is no larger
    *    than the distance between the segments.
    * So `segDist >= box gap / 2`. The cut-off adds a relative margin of 1e-9
    * of `eps` plus the largest coordinate, far above the kernel's rounding
    * error. A box with a non-finite coordinate is never skipped (it spans the
    * plane), which keeps the naive scan's outcome on NaN. `j` stays ascending,
    * so neighbour lists, queue order and cluster ids equal `dbscanReference`'s.
    */
  def dbscan(segs: Array[Seg], eps: Double, minLns: Int): Array[Int] = {
    val g = new SegArrays(segs)
    val n = g.n
    val cut = 2 * eps + 1e-9 * (2 * math.abs(eps) + g.scale)
    // a negative or NaN cut-off: no pair is within eps, any skip is safe
    val cut2 = if (cut > 0) cut * cut else 0.0
    val nb = new Array[Int](n)
    def neighbours(i: Int): Array[Int] = {
      var k = 0
      var j = 0
      while (j < n) {
        if (g.boxGap2(i, j) <= cut2 && g.dist(i, j) <= eps) { nb(k) = j; k += 1 }
        j += 1
      }
      java.util.Arrays.copyOf(nb, k)
    }
    expand(n, minLns, neighbours)
  }

  /** The naive all-pairs DBSCAN that `dbscan` must equal (tests only). */
  private[queries] def dbscanReference(segs: Array[Seg], eps: Double, minLns: Int): Array[Int] = {
    val n = segs.length
    def neighbours(i: Int): Array[Int] = {
      val out = mutable.ArrayBuffer.empty[Int]
      var j = 0
      while (j < n) {
        if (segDist(segs(i), segs(j)) <= eps) out += j
        j += 1
      }
      out.toArray
    }
    expand(n, minLns, neighbours)
  }

  /** DBSCAN cluster expansion over `n` items given their neighbour lists. */
  private def expand(n: Int, minLns: Int, neighbours: Int => Array[Int]): Array[Int] = {
    val cluster = Array.fill(n)(-2) // -2 unvisited, -1 noise, >=0 cluster id
    var cid = 0
    var i = 0
    while (i < n) {
      if (cluster(i) == -2) {
        val nb = neighbours(i)
        if (nb.length < minLns) cluster(i) = -1
        else {
          cluster(i) = cid
          val queue = mutable.Queue(nb.toSeq: _*)
          while (queue.nonEmpty) {
            val j = queue.dequeue()
            if (cluster(j) == -1) cluster(j) = cid
            if (cluster(j) == -2) {
              cluster(j) = cid
              val nb2 = neighbours(j)
              if (nb2.length >= minLns) queue.enqueueAll(nb2)
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
