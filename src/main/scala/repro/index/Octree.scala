package repro.index

import scala.collection.mutable.ArrayBuffer
import repro.Par
import repro.core.{Box, Model, Point, Traj}

/** A node of the adaptive octree. `level` is 1-based as in the paper (the
  * root cube is B_1^1); which nodes split is `Octree`'s build rule. Internal
  * nodes hold statistics only.
  *
  * Per-node statistics:
  *  - `m` — number of distinct trajectories with >=1 point in the cube (the
  *    paper's M_B).
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
  var children: Array[OctNode] = _ // null while leaf

  def isLeaf: Boolean = children == null

  /** Number of points in the cube (after the build). */
  def nPoints: Int = hi - lo
}

/** Octree over a trajectory database (Section IV, "spatio-temporal cubes").
  * Splits the database bounding cube 8-ways recursively: 2 spatial dimensions
  * and 1 temporal dimension, one bit each.
  *
  * The tree is the one that inserting the points one at a time in
  * (trajectory, index) order builds, where a leaf that exceeds `leafCap`
  * points below `maxDepth` splits and pushes its points into its new
  * children without checking them for a split. It is built top-down
  * instead, as a stable 8-way partition of primitive arrays (point codes and
  * x, y, t in (trajectory, index) order), which reproduces that tree
  * exactly. Let `k0` be the number of a node's points present when it was
  * created (0 for the root). The node splits iff `level < maxDepth`, its
  * point count exceeds `leafCap` and it exceeds `k0`; a child's `k0` is the
  * number of the parent's first `max(leafCap + 1, k0 + 1)` points (the ones
  * present at the split) that route to it. So a child that receives all
  * `leafCap + 1` points of a split stays a leaf unless another point
  * arrives. Each level of the build is one pass over its points, so the
  * build costs O(N · depth).
  *
  * Each node owns a disjoint `[lo, hi)` range of the partition arrays, so
  * subtrees can be grown independently (parallel octree construction,
  * Karras, HPG 2012). The caller partitions the levels above `cutLevel`,
  * each pass in concurrent chunks whose per-chunk cell counts keep the
  * partition stable; every node at `cutLevel` then grows its subtree as one
  * [[Par]] task, the largest first, writing only its own range and its own
  * nodes. Below `Par.chunks`' row threshold all of them form one task.
  * Every cut level builds the same tree.
  *
  * @param db       the database; `trajIdx` in all APIs is the index into `db`
  * @param maxDepth the paper's parameter E (maximum tree level)
  * @param leafCap  adaptive split threshold (points per leaf before splitting)
  * @param cutLevel the level whose nodes grow as tasks; 0 grows the whole
  *                 tree in the caller (test hook)
  */
final class Octree private[index] (val db: Array[Traj], val maxDepth: Int, val leafCap: Int,
                                   cutLevel: Int) {

  def this(db: Array[Traj], maxDepth: Int, leafCap: Int) = this(db, maxDepth, leafCap, Octree.cutLevel)

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
    * order (children 0–7, each leaf's points in (trajectory, index) order);
    * node `n` owns `flat(n.lo until n.hi)`. Read-only after the build.
    */
  val flat: Array[Long] = build()

  // JIT: every build loop sits in a method of its own, called from a method,
  // never in the constructor body or a `val` initialiser, which the JIT
  // compiles poorly (the fill loop took 17 ms in `val flat = {...}`, 2.3 ms
  // as a method). And one loop per small method: a draft that ran all of the
  // partition's loops in one recursive method built a different tree in 4 of
  // 12 cold JVMs under C2 (never under -Xint, C1 alone or without on-stack
  // replacement). Split into these methods, the build matched the
  // incremental one in 24 of 24 fresh JDK 17 JVMs of 40 builds each; built
  // in parallel, in 24 of 24 fresh JVMs of 40 builds at each of (8, 32),
  // (8, 4), (6, 1) and (8, 0) on the bench database.
  private def build(): Array[Long] = {
    val b = new Octree.Partition(Model.totalPoints(db).toInt)
    b.fill(db, Par.chunks(b.codes.length))
    val cut = ArrayBuffer.empty[Octree.Subtree]
    grow(b, root, 0, b.codes.length, 0, cut)
    growSubtrees(b, cut.sortBy(s => s.lo - s.hi))
    b.codes
  }

  /** Grow the subtrees deferred at the cut level, largest first. */
  private def growSubtrees(b: Octree.Partition, cut: ArrayBuffer[Octree.Subtree]): Unit = {
    val tasks = cut.toSeq.map(s => () => grow(b, s.n, s.lo, s.hi, s.k0, null))
    Par.all(if (Par.chunks(b.codes.length) > 1) tasks else Seq(() => tasks.foreach(_())))
  }

  /** Give `n` the range `[lo, hi)` of the partition, which holds its points
    * in (trajectory, index) order, and split it by the build rule. `k0` is
    * the number of its points present when it was created. A node at the cut
    * level is added to `cut` instead, unless `cut` is null.
    */
  private def grow(b: Octree.Partition, n: OctNode, lo: Int, hi: Int, k0: Int,
                   cut: ArrayBuffer[Octree.Subtree]): Unit =
    if (cut != null && n.level == cutLevel) cut += new Octree.Subtree(n, lo, hi, k0)
    else {
      // above the cut each pass runs in concurrent chunks; a subtree task
      // runs them whole
      val chunks = if (cut != null && n.level < cutLevel) Par.chunks(hi - lo) else 1
      n.lo = lo; n.hi = hi; n.remaining = hi - lo
      n.m = b.distinctTrajs(lo, hi, chunks)
      if (n.level < maxDepth && hi - lo > math.max(leafCap, k0)) {
        b.route(n.box, lo, hi, chunks)
        val k0s = b.countCells(lo, lo + math.max(leafCap + 1, k0 + 1))
        val sizes = b.scatter(lo, hi, chunks)
        n.children = Array.tabulate(8)(ci => new OctNode(n.level + 1, childBox(n.box, ci)))
        growChildren(b, n, sizes, k0s, cut)
      }
    }

  private def growChildren(b: Octree.Partition, n: OctNode, sizes: Array[Int], k0s: Array[Int],
                           cut: ArrayBuffer[Octree.Subtree]): Unit = {
    var at = n.lo
    var ci = 0
    while (ci < 8) {
      grow(b, n.children(ci), at, at + sizes(ci), k0s(ci), cut)
      at += sizes(ci)
      ci += 1
    }
  }

  private def childBox(b: Box, ci: Int): Box = {
    val mx = (b.xmin + b.xmax) / 2; val my = (b.ymin + b.ymax) / 2; val mt = (b.tmin + b.tmax) / 2
    val xb = (ci & 1) != 0; val yb = (ci & 2) != 0; val tb = (ci & 4) != 0
    Box(
      if (xb) mx else b.xmin, if (xb) b.xmax else mx,
      if (yb) my else b.ymin, if (yb) b.ymax else my,
      if (tb) mt else b.tmin, if (tb) b.tmax else mt)
  }

  private def childIndex(b: Box, p: Point): Int = Octree.cell(b, p.x, p.y, p.t)

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
    *  - Step: with midpoint `m` (the same in `Octree.cell` and
    *    `childBox`), the build routes `p` to the upper half
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
  /** The level whose nodes grow their subtrees as tasks: up to 64 of them. */
  private val cutLevel = 3

  /** A node deferred at the cut level, with its build arguments. */
  private final class Subtree(val n: OctNode, val lo: Int, val hi: Int, val k0: Int)

  /** The child of box `b` that holds (x, y, t): one bit per dimension, set
    * when the coordinate is at or above the box's midpoint (so a NaN
    * coordinate goes to the lower half).
    */
  @inline private def cell(b: Box, x: Double, y: Double, t: Double): Int = {
    val mx = (b.xmin + b.xmax) / 2; val my = (b.ymin + b.ymax) / 2; val mt = (b.tmin + b.tmax) / 2
    (if (x >= mx) 1 else 0) | (if (y >= my) 2 else 0) | (if (t >= mt) 4 else 0)
  }

  /** The build's working arrays: point codes and coordinates, filled in
    * (trajectory, index) order and partitioned in place node by node, plus
    * each point's child cell and a scatter buffer. Each loop is a method of
    * its own (see `Octree.build`). A pass over a range can run in `chunks`
    * concurrent chunks, each over its own part of every array. One chunk, as
    * in every subtree task, calls the range loop directly: through the
    * chunked code, with its closures, the bench build took 8.4 ms instead
    * of 7 ms.
    */
  private final class Partition(n: Int) {
    val codes = new Array[Long](n)
    private val xs = new Array[Double](n)
    private val ys = new Array[Double](n)
    private val ts = new Array[Double](n)
    private val cells = new Array[Byte](n)
    private val tmpCodes = new Array[Long](n)
    private val tmpXs = new Array[Double](n)
    private val tmpYs = new Array[Double](n)
    private val tmpTs = new Array[Double](n)

    /** Fill the arrays from `db`, trajectories in `chunks` chunks. */
    def fill(db: Array[Traj], chunks: Int): Unit = {
      val from = trajStarts(db)
      Par.ranges(db.length, chunks)((a, z) => fillTrajs(db, a, z, from(a)))
    }

    /** Where each trajectory's points start. */
    private def trajStarts(db: Array[Traj]): Array[Int] = {
      val from = new Array[Int](db.length + 1)
      var ti = 0
      while (ti < db.length) { from(ti + 1) = from(ti) + db(ti).length; ti += 1 }
      from
    }

    private def fillTrajs(db: Array[Traj], a: Int, z: Int, from: Int): Unit = {
      var at = from
      var ti = a
      while (ti < z) { at = fillTraj(db(ti), ti, at); ti += 1 }
    }

    private def fillTraj(tr: Traj, ti: Int, from: Int): Int = {
      val pts = tr.points
      var pi = 0
      while (pi < pts.length) {
        val p = pts(pi)
        codes(from + pi) = (ti.toLong << 32) | (pi.toLong & 0xffffffffL)
        xs(from + pi) = p.x; ys(from + pi) = p.y; ts(from + pi) = p.t
        pi += 1
      }
      from + pts.length
    }

    /** `[lo, hi)` split into `chunks` ranges, as `Par.ranges` splits it. */
    private def parts[A](lo: Int, hi: Int, chunks: Int)(body: (Int, Int) => A): IndexedSeq[A] =
      Par.ranges(hi - lo, chunks)((a, z) => body(lo + a, lo + z))

    /** Number of distinct trajectories in `[lo, hi)`, whose codes ascend. */
    def distinctTrajs(lo: Int, hi: Int, chunks: Int): Int =
      if (chunks == 1) runStarts(lo, lo, hi) else parts(lo, hi, chunks)(runStarts(lo, _, _)).sum

    /** Positions in `[from, to)` that start a run of one trajectory's codes
      * in the range that begins at `lo`.
      */
    private def runStarts(lo: Int, from: Int, to: Int): Int = {
      var m = 0
      var i = from
      while (i < to) {
        if (i == lo || trajOf(codes(i)) != trajOf(codes(i - 1))) m += 1
        i += 1
      }
      m
    }

    /** Record the child cell of box `b` of every point in `[lo, hi)`. */
    def route(b: Box, lo: Int, hi: Int, chunks: Int): Unit =
      if (chunks == 1) routeRange(b, lo, hi) else parts(lo, hi, chunks)(routeRange(b, _, _))

    private def routeRange(b: Box, lo: Int, hi: Int): Unit = {
      var i = lo
      while (i < hi) { cells(i) = cell(b, xs(i), ys(i), ts(i)).toByte; i += 1 }
    }

    /** Points per cell in `[lo, hi)`, after `route`. */
    def countCells(lo: Int, hi: Int): Array[Int] = {
      val c = new Array[Int](8)
      var i = lo
      while (i < hi) { c(cells(i)) += 1; i += 1 }
      c
    }

    /** Stable partition of `[lo, hi)` by cell, cell 0 first, after `route`;
      * returns the cells' counts. In chunks, each chunk's points of a cell
      * go after that cell's points of every earlier chunk.
      */
    def scatter(lo: Int, hi: Int, chunks: Int): Array[Int] =
      if (chunks == 1) {
        val sizes = countCells(lo, hi)
        scatterRange(lo, hi, starts(lo, sizes))
        copyBack(lo, hi)
        sizes
      } else {
        val counted = parts(lo, hi, chunks)((from, to) => (from, to, countCells(from, to)))
        val sizes = new Array[Int](8)
        counted.foreach(c => addCounts(sizes, c._3))
        val next = starts(lo, sizes)
        val tasks = counted.map { case (from, to, counts) =>
          val at = next.clone()
          addCounts(next, counts)
          () => scatterRange(from, to, at)
        }
        Par.all(tasks)
        parts(lo, hi, chunks)(copyBack)
        sizes
      }

    /** Move each point of `[lo, hi)` to `next` of its cell in the buffers. */
    private def scatterRange(lo: Int, hi: Int, next: Array[Int]): Unit = {
      var i = lo
      while (i < hi) {
        val d = next(cells(i)); next(cells(i)) = d + 1
        tmpCodes(d) = codes(i); tmpXs(d) = xs(i); tmpYs(d) = ys(i); tmpTs(d) = ts(i)
        i += 1
      }
    }

    private def copyBack(lo: Int, hi: Int): Unit = {
      System.arraycopy(tmpCodes, lo, codes, lo, hi - lo)
      System.arraycopy(tmpXs, lo, xs, lo, hi - lo)
      System.arraycopy(tmpYs, lo, ys, lo, hi - lo)
      System.arraycopy(tmpTs, lo, ts, lo, hi - lo)
    }

    private def addCounts(to: Array[Int], counts: Array[Int]): Unit = {
      var c = 0
      while (c < 8) { to(c) += counts(c); c += 1 }
    }

    private def starts(lo: Int, sizes: Array[Int]): Array[Int] = {
      val s = new Array[Int](8)
      var at = lo
      var c = 0
      while (c < 8) { s(c) = at; at += sizes(c); c += 1 }
      s
    }
  }

  /** Trajectory index of a point code. */
  @inline def trajOf(code: Long): Int = (code >>> 32).toInt

  /** Point index of a point code. */
  @inline def ptOf(code: Long): Int = (code & 0xffffffffL).toInt
}
