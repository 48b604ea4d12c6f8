package repro.index

import scala.collection.mutable.ArrayBuffer
import repro.core.{Box, Model, Point, Traj}

/** The incremental octree build that `Octree`'s top-down partition
  * replaces, kept as the reference the differential tests compare against:
  * insert every point in (trajectory, index) order; a leaf that exceeds
  * `leafCap` points below `maxDepth` splits and pushes its points into its
  * new children without checking them for a split. `m` is kept with the
  * last-seen-trajectory trick, valid because of the insertion order.
  * Supports the query counts and the remaining-point bookkeeping too.
  */
final class OctreeReference(val db: Array[Traj], val maxDepth: Int, val leafCap: Int) {
  import OctreeReference.Node

  val bounds: Box = {
    val (xmin, xmax, ymin, ymax, tmin, tmax) = Model.bounds(db)
    val ex = math.max(1e-9, (xmax - xmin) * 1e-9)
    val ey = math.max(1e-9, (ymax - ymin) * 1e-9)
    val et = math.max(1e-9, (tmax - tmin) * 1e-9)
    Box(xmin, xmax + ex, ymin, ymax + ey, tmin, tmax + et)
  }

  val root: Node = new Node(1, bounds)

  /** Point codes, leaves in DFS order, each leaf's points in insertion order. */
  val flat: Array[Long] = build()

  private def build(): Array[Long] = {
    for (ti <- db.indices; pi <- db(ti).points.indices) insert(ti, pi, db(ti).points(pi))
    val out = new Array[Long](Model.totalPoints(db).toInt)
    def lay(n: Node, at: Int): Int = {
      n.lo = at
      n.hi =
        if (n.isLeaf) {
          n.pts.copyToArray(out, at)
          at + n.pts.length
        } else n.children.foldLeft(at)((pos, c) => lay(c, pos))
      n.remaining = n.hi - n.lo
      n.hi
    }
    lay(root, 0)
    out
  }

  private def childBox(b: Box, ci: Int): Box = {
    val mx = (b.xmin + b.xmax) / 2; val my = (b.ymin + b.ymax) / 2; val mt = (b.tmin + b.tmax) / 2
    val xb = (ci & 1) != 0; val yb = (ci & 2) != 0; val tb = (ci & 4) != 0
    Box(
      if (xb) mx else b.xmin, if (xb) b.xmax else mx,
      if (yb) my else b.ymin, if (yb) b.ymax else my,
      if (tb) mt else b.tmin, if (tb) b.tmax else mt)
  }

  private def childIndex(b: Box, p: Point): Int = {
    val mx = (b.xmin + b.xmax) / 2; val my = (b.ymin + b.ymax) / 2; val mt = (b.tmin + b.tmax) / 2
    (if (p.x >= mx) 1 else 0) | (if (p.y >= my) 2 else 0) | (if (p.t >= mt) 4 else 0)
  }

  private def bump(n: Node, trajIdx: Int): Unit =
    if (n.lastTraj != trajIdx) { n.m += 1; n.lastTraj = trajIdx }

  private def insert(trajIdx: Int, ptIdx: Int, p: Point): Unit = {
    var n = root
    bump(n, trajIdx)
    while (!n.isLeaf) {
      n = n.children(childIndex(n.box, p))
      bump(n, trajIdx)
    }
    n.pts += ((trajIdx.toLong << 32) | (ptIdx.toLong & 0xffffffffL))
    if (n.pts.length > leafCap && n.level < maxDepth) split(n)
  }

  private def split(n: Node): Unit = {
    n.children = Array.tabulate(8)(ci => new Node(n.level + 1, childBox(n.box, ci)))
    val old = n.pts; n.pts = null
    for (code <- old) {
      val ti = Octree.trajOf(code)
      val c = n.children(childIndex(n.box, db(ti).points(Octree.ptOf(code))))
      bump(c, ti)
      c.pts += code
    }
  }

  def addQuery(queryBox: Box): Unit = {
    val c = queryBox.center
    if (!bounds.contains(c)) { root.q += 1; return }
    var n = root
    n.q += 1
    while (!n.isLeaf) { n = n.children(childIndex(n.box, c)); n.q += 1 }
  }

  def markInserted(p: Point): Unit = {
    var n = root
    n.remaining -= 1
    while (!n.isLeaf) { n = n.children(childIndex(n.box, p)); n.remaining -= 1 }
  }
}

object OctreeReference {
  final class Node(val level: Int, val box: Box) {
    var m: Int = 0
    var q: Int = 0
    var remaining: Int = 0
    var lo: Int = 0
    var hi: Int = 0
    var lastTraj: Int = -1
    var children: Array[Node] = _
    var pts: ArrayBuffer[Long] = new ArrayBuffer[Long]()

    def isLeaf: Boolean = children == null
  }
}
