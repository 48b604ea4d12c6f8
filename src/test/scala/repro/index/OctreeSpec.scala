package repro.index

import repro.SparkSpec
import repro.core.{Box, Point, Traj}
import repro.data.TrajGen

/** Tests of the adaptive octree index (cube statistics, splitting, query
  * counts, remaining-point bookkeeping).
  */
class OctreeSpec extends SparkSpec {

  private def grid(n: Int): Array[Traj] = {
    // n trajectories, each a short run in a distinct region
    Array.tabulate(n) { i =>
      val x0 = (i % 4) * 100.0; val y0 = (i / 4) * 100.0
      Traj(i, Array.tabulate(5)(j => Point(x0 + j, y0 + j, i * 100.0 + j)))
    }
  }

  test("root covers all points and counts every trajectory") {
    val db = grid(8)
    val ot = new Octree(db, maxDepth = 5, leafCap = 4)
    assert(ot.root.m === 8)
    assert(ot.root.nPoints === 40)
    assert(ot.root.remaining === 40)
  }

  test("bounds enclose every point") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 5, 1)
    val ot = new Octree(db, 6, 8)
    for (tr <- db; p <- tr.points) assert(ot.bounds.contains(p))
  }

  test("children partition the parent's points") {
    val db = grid(16)
    val ot = new Octree(db, 5, 4)
    def check(n: OctNode): Unit = if (!n.isLeaf) {
      assert(n.children.map(_.nPoints).sum === n.nPoints)
      assert(n.children.map(_.remaining).sum === n.remaining)
      n.children.foreach(check)
    }
    check(ot.root)
  }

  test("a leaf splits only past leafCap and below maxDepth") {
    val db = grid(2) // 10 points
    val big = new Octree(db, 5, leafCap = 100)
    assert(big.root.isLeaf) // never splits
    val small = new Octree(db, 1, leafCap = 1)
    assert(small.root.isLeaf) // maxDepth forbids splitting
  }

  test("M (distinct trajectory count) is exact at every node") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 10, 7)
    val ot = new Octree(db, 6, 8)
    def check(n: OctNode): Unit = {
      val ids = ot.pointsIn(n).map(_._1).toSet
      assert(n.m === ids.size, s"level ${n.level}")
      if (!n.isLeaf) n.children.foreach(check)
    }
    check(ot.root)
  }

  test("pointsIn returns exactly the points inside the node's box") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 6, 9)
    val ot = new Octree(db, 6, 8)
    def check(n: OctNode): Unit = {
      assert(ot.pointsIn(n).forall { case (ti, pi) => n.box.contains(db(ti).points(pi)) })
      if (!n.isLeaf) n.children.foreach(check)
    }
    check(ot.root)
  }

  test("every point appears exactly once among the leaves") {
    val db = grid(16)
    val ot = new Octree(db, 5, 4)
    val all = ot.pointsIn(ot.root).toSeq
    assert(all.size === 80)
    assert(all.distinct.size === 80)
  }

  test("each node's [lo, hi) equals the leaf walk, and children partition it") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 8, 5)
    val ot = new Octree(db, 6, 8)
    // descend each point with the octree's child rule; a leaf receives its
    // points in (trajectory, index) order
    val byLeaf = scala.collection.mutable.LinkedHashMap.empty[OctNode, Vector[Long]]
    for (ti <- db.indices; pi <- db(ti).points.indices) {
      val p = db(ti).points(pi)
      var n = ot.root
      while (!n.isLeaf) {
        val b = n.box
        n = n.children((if (p.x >= (b.xmin + b.xmax) / 2) 1 else 0) |
          (if (p.y >= (b.ymin + b.ymax) / 2) 2 else 0) | (if (p.t >= (b.tmin + b.tmax) / 2) 4 else 0))
      }
      byLeaf(n) = byLeaf.getOrElse(n, Vector.empty) :+ ((ti.toLong << 32) | pi)
    }
    // the leaf walk: leaves in DFS order (children 0-7), each leaf's points in turn
    val walk = Vector.newBuilder[Long]
    var at = 0
    def check(n: OctNode): Unit = {
      assert(n.lo === at, s"level ${n.level}")
      if (n.isLeaf) {
        val own = byLeaf.getOrElse(n, Vector.empty)
        walk ++= own; at += own.length
      } else {
        n.children.foreach(check)
        assert(n.children.head.lo === n.lo && n.children.last.hi === n.hi)
        for (i <- 0 until 7) assert(n.children(i).hi === n.children(i + 1).lo)
      }
      assert(n.hi === at, s"level ${n.level}")
    }
    check(ot.root)
    assert(ot.flat.toVector === walk.result())
    assert(ot.pointsIn(ot.root).map { case (ti, pi) => (ti.toLong << 32) | pi }.toVector ===
      ot.flat.toVector)
  }

  test("addQuery increments Q along the centre's path") {
    val db = grid(16)
    val ot = new Octree(db, 5, 4)
    val q = Box(0, 10, 0, 10, 0, 10)
    ot.addQuery(q)
    assert(ot.root.q === 1)
    // exactly one child holds the centre
    if (!ot.root.isLeaf) assert(ot.root.children.map(_.q).sum === 1)
  }

  test("a query with centre outside the bounds only counts at the root") {
    val db = grid(4)
    val ot = new Octree(db, 5, 4)
    ot.addQuery(Box(1e9, 2e9, 1e9, 2e9, 0, 1))
    assert(ot.root.q === 1)
    if (!ot.root.isLeaf) assert(ot.root.children.map(_.q).sum === 0)
  }

  test("markInserted decrements remaining along the path") {
    val db = grid(8)
    val ot = new Octree(db, 5, 4)
    val before = ot.root.remaining
    ot.markInserted(db(0).points(0))
    assert(ot.root.remaining === before - 1)
    def leafFor(p: Point): OctNode = {
      var n = ot.root
      while (!n.isLeaf) n = n.children.find(_.box.contains(p)).get
      n
    }
    assert(leafFor(db(0).points(0)).remaining === leafFor(db(0).points(0)).nPoints - 1)
  }

  test("frontierAtLevel returns nodes at the level plus shallower leaves, covering all points") {
    val db = grid(16)
    val ot = new Octree(db, 5, 4)
    val f = ot.frontierAtLevel(3)
    assert(f.forall(n => n.level == 3 || (n.isLeaf && n.level < 3)))
    assert(f.map(_.nPoints).sum === 80)
  }

  test("frontierAtLevel(1) is just the root") {
    val db = grid(4)
    val ot = new Octree(db, 5, 4)
    assert(ot.frontierAtLevel(1) === IndexedSeq(ot.root))
  }

  test("node levels never exceed maxDepth") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 10, 3)
    val ot = new Octree(db, 4, 1)
    def maxLevel(n: OctNode): Int =
      if (n.isLeaf) n.level else n.children.map(maxLevel).max
    assert(maxLevel(ot.root) <= 4)
  }

  test("child boxes tile the parent box") {
    val db = grid(16)
    val ot = new Octree(db, 5, 4)
    val n = ot.root
    assert(!n.isLeaf)
    val c = n.children
    val childVol = c.map(b =>
      (b.box.xmax - b.box.xmin) * (b.box.ymax - b.box.ymin) * (b.box.tmax - b.box.tmin)).sum
    val parentVol =
      (n.box.xmax - n.box.xmin) * (n.box.ymax - n.box.ymin) * (n.box.tmax - n.box.tmin)
    assert(math.abs(childVol - parentVol) <= math.abs(parentVol) * 1e-9)
  }

  test("octree of a single-point database works") {
    val db = Array(Traj(0, Array(Point(1, 2, 3))))
    val ot = new Octree(db, 5, 4)
    assert(ot.root.m === 1 && ot.root.nPoints === 1)
    assert(ot.pointsIn(ot.root).toSeq === Seq((0, 0)))
  }
}
