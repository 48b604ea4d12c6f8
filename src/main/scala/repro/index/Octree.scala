package repro.index

import scala.collection.mutable.ArrayBuffer
import repro.core.{Box, Model, Point, Traj}

/** A node of the adaptive octree. `level` is 1-based as in the paper (the
  * root cube is B_1^1). A node is a leaf until its point count exceeds
  * `leafCap` and it is below `maxDepth`; internal nodes hold statistics only.
  *
  * Per-node statistics:
  *  - `m` — number of distinct trajectories with >=1 point in the cube (the
  *    paper's M_B). Maintained with the last-seen-trajectory trick, valid
  *    because points are inserted in (trajectory, index) order.
  *  - `q` — number of workload queries whose centre falls in the cube (Q_B).
  *  - `remaining` — points in the cube not yet inserted into the simplified
  *    database; used to mask exhausted subtrees during Agent-Cube traversal.
  *  - `[lo, hi)` — the cube's points as a range of `Octree.flat`.
  */
final class OctNode(val level: Int, val box: Box) {
  var m: Int = 0
  var q: Int = 0
  var remaining: Int = 0
  var lo: Int = 0
  var hi: Int = 0
  private[index] var lastTraj: Long = -1L
  var children: Array[OctNode] = _ // null while leaf
  // point codes of a leaf while the tree is built; moved into `Octree.flat`
  private[index] var pts: ArrayBuffer[Long] = new ArrayBuffer[Long]()

  def isLeaf: Boolean = children == null

  /** Number of points in the cube (after the build). */
  def nPoints: Int = hi - lo
}

/** Octree over a trajectory database (Section IV, "spatio-temporal cubes").
  * Splits the database bounding cube 8-ways recursively: 2 spatial dimensions
  * and 1 temporal dimension, one bit each.
  *
  * @param db       the database; `trajIdx` in all APIs is the index into `db`
  * @param maxDepth the paper's parameter E (maximum tree level)
  * @param leafCap  adaptive split threshold (points per leaf before splitting)
  */
final class Octree(val db: Array[Traj], val maxDepth: Int, val leafCap: Int = 32) {

  val bounds: Box = {
    val (xmin, xmax, ymin, ymax, tmin, tmax) = Model.bounds(db)
    // widen slightly so max-coordinate points land strictly inside
    val ex = math.max(1e-9, (xmax - xmin) * 1e-9)
    val ey = math.max(1e-9, (ymax - ymin) * 1e-9)
    val et = math.max(1e-9, (tmax - tmin) * 1e-9)
    Box(xmin, xmax + ex, ymin, ymax + ey, tmin, tmax + et)
  }

  val root: OctNode = new OctNode(1, bounds)

  /** Every point code `(trajIdx << 32) | ptIdx`, leaves laid out in DFS
    * order (children 0–7, each leaf's points in insertion order); node `n`
    * owns `flat(n.lo until n.hi)`. Read-only after the build.
    */
  val flat: Array[Long] = {
    // Build: insert every point in (trajectory, index) order.
    var ti = 0
    while (ti < db.length) {
      val tr = db(ti)
      var pi = 0
      while (pi < tr.points.length) { insert(ti, pi, tr.points(pi)); pi += 1 }
      ti += 1
    }
    val out = new Array[Long](Model.totalPoints(db).toInt)
    def lay(n: OctNode, at: Int): Int = {
      n.lo = at
      n.hi =
        if (n.isLeaf) {
          n.pts.copyToArray(out, at)
          val end = at + n.pts.length
          n.pts = null
          end
        } else n.children.foldLeft(at)((pos, c) => lay(c, pos))
      n.hi
    }
    lay(root, 0)
    resetRemaining()
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

  private def bump(n: OctNode, trajIdx: Int): Unit =
    if (n.lastTraj != trajIdx.toLong) { n.m += 1; n.lastTraj = trajIdx.toLong }

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

  private def split(n: OctNode): Unit = {
    n.children = Array.tabulate(8)(ci => new OctNode(n.level + 1, childBox(n.box, ci)))
    // push points down in insertion order so the last-seen-trajectory M trick
    // stays valid for the children
    val old = n.pts; n.pts = null
    var i = 0
    while (i < old.length) {
      val code = old(i)
      val ti = Octree.trajOf(code)
      val p = db(ti).points(Octree.ptOf(code))
      var c = n.children(childIndex(n.box, p))
      bump(c, ti)
      while (!c.isLeaf) { c = c.children(childIndex(c.box, p)); bump(c, ti) }
      c.pts += code
      i += 1
    }
  }

  /** Register a workload query: increments Q on every node containing its centre. */
  def addQuery(queryBox: Box): Unit = {
    val c = queryBox.center
    if (!bounds.contains(c)) { root.q += 1; return }
    var n = root
    n.q += 1
    while (!n.isLeaf) { n = n.children(childIndex(n.box, c)); n.q += 1 }
  }

  /** Nodes at tree level `s` (1 = root), plus shallower leaves so that every
    * point remains reachable from the returned frontier.
    */
  def frontierAtLevel(s: Int): IndexedSeq[OctNode] = {
    val out = ArrayBuffer.empty[OctNode]
    def rec(n: OctNode): Unit =
      if (n.level == s || n.isLeaf) out += n
      else n.children.foreach(rec)
    rec(root)
    out.toIndexedSeq
  }

  /** The trajectories with a point in query box `q`: entry `ti` is true iff
    * `q.contains(p)` for some point `p` of `db(ti)`, exactly as a full scan
    * (`RangeQuery.inMemory`) finds them. Visits only nodes whose box is not
    * provably disjoint from `q` and tests their leaves' points with
    * `q.contains`.
    *
    * Exactness: a node is pruned only when one of its six separation
    * comparisons (`b.xmax < q.xmin`, `b.xmin > q.xmax`, and the same for y
    * and t) is true; a NaN bound makes its comparisons false, so it never
    * prunes. Let `q.contains(p)`; then no coordinate of `p` is NaN. Claim: on
    * `p`'s root-to-leaf path, in each dimension every lower bound is NaN or
    * `<= p` and every upper bound is NaN or `>= p`.
    *  - Root: `Model.bounds`' minima are `<=` and its maxima `>=` every
    *    non-NaN coordinate, `p`'s among them, and the widening adds a
    *    positive amount (or NaN) to the maxima.
    *  - Step: with midpoint `m` (the same in `childIndex` and
    *    `childBox`), the build and `split` route `p` to the upper half
    *    `[m, max]` only if `p >= m`, and otherwise to the lower half
    *    `[min, m]`, where `p < m` or `m` is NaN. The child inherits the
    *    other bound.
    * So for a node `b` on the path, `b.xmax < q.xmin` would need
    * `p.x <= b.xmax < q.xmin`, contradicting `q.contains(p)`; likewise for
    * the other five. No node on `p`'s path is pruned, and its leaf tests `p`.
    */
  def trajsIn(q: Box): Array[Boolean] = {
    val hit = new Array[Boolean](db.length)
    def visit(n: OctNode): Unit = {
      val b = n.box
      val disjoint = b.xmax < q.xmin || b.xmin > q.xmax || b.ymax < q.ymin ||
        b.ymin > q.ymax || b.tmax < q.tmin || b.tmin > q.tmax
      if (!disjoint) {
        if (n.isLeaf) {
          var i = n.lo
          while (i < n.hi) {
            val ti = Octree.trajOf(flat(i))
            if (!hit(ti) && q.contains(db(ti).points(Octree.ptOf(flat(i))))) hit(ti) = true
            i += 1
          }
        } else n.children.foreach(visit)
      }
    }
    visit(root)
    hit
  }

  /** All (trajIdx, ptIdx) pairs in the subtree of `n`, in `flat` order. */
  def pointsIn(n: OctNode): Iterator[(Int, Int)] =
    Iterator.range(n.lo, n.hi).map(i => (Octree.trajOf(flat(i)), Octree.ptOf(flat(i))))

  /** Mark every point un-inserted again: each node's `remaining` becomes its
    * `nPoints`.
    */
  def resetRemaining(): Unit = {
    def rec(n: OctNode): Unit = {
      n.remaining = n.nPoints
      if (!n.isLeaf) n.children.foreach(rec)
    }
    rec(root)
  }

  /** Mark a point as inserted into the simplified database: decrements
    * `remaining` along its root-to-leaf path.
    */
  def markInserted(p: Point): Unit = {
    var n = root
    n.remaining -= 1
    while (!n.isLeaf) { n = n.children(childIndex(n.box, p)); n.remaining -= 1 }
  }

  /** Number of nodes (for tests / diagnostics). */
  def size: Int = {
    def rec(n: OctNode): Int = 1 + (if (n.isLeaf) 0 else n.children.map(rec).sum)
    rec(root)
  }
}

object Octree {
  /** Trajectory index of a point code. */
  @inline def trajOf(code: Long): Int = (code >>> 32).toInt

  /** Point index of a point code. */
  @inline def ptOf(code: Long): Int = (code & 0xffffffffL).toInt
}
