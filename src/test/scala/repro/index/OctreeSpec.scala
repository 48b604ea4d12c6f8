package repro.index

import org.scalacheck.Gen
import repro.{Par, PropSupport, SparkSpec}
import repro.core.{Box, Point, Traj}
import repro.data.TrajGen
import repro.queries.RangeQuery

/** Tests of the adaptive octree index (cube statistics, splitting, query
  * counts, remaining-point bookkeeping).
  */
class OctreeSpec extends SparkSpec with PropSupport {

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

  // --- range queries from the octree against the full scan ---

  /** A database, an octree shape and query boxes for the range differential.
    * Coordinates are on a small integer grid, so query faces pass through
    * points. Offset by 1e9, the grid is too coarse for the root's 1e-9
    * widening, so node faces pass through points too. Some databases have
    * zero extent, empty and one-point
    * trajectories, NaN coordinates, or -inf and +inf in one dimension (the
    * root's midpoint there is NaN, and so are the bounds below it). Some
    * queries have NaN, infinite or inverted bounds.
    */
  private val rangeCases: Gen[(Array[Traj], Int, Int, Array[Box])] = for {
    seed <- Gen.choose(0L, Long.MaxValue)
    nTrajs <- Gen.chooseNum(0, 12)
    kind <- Gen.oneOf("grid", "zero", "nonfinite")
    origin <- Gen.oneOf(0.0, 1e9)
    maxDepth <- Gen.oneOf(1, 3, 12)
    leafCap <- Gen.oneOf(1, 4, 100)
  } yield {
    val rng = new java.util.Random(seed)
    def grid(): Double = origin + rng.nextInt(9)
    val specials = Array(Double.NaN, Double.NegativeInfinity, Double.PositiveInfinity)
    def coord(): Double = kind match {
      case "zero" => origin + 4
      case "nonfinite" if rng.nextInt(6) == 0 => specials(rng.nextInt(3))
      case _ => grid()
    }
    val db = Array.tabulate(nTrajs) { i =>
      val len = rng.nextInt(5) match { case 0 => 1; case 1 if rng.nextBoolean() => 0; case _ => rng.nextInt(40) }
      Traj(i, Array.fill(len)(Point(coord(), coord(), coord())))
    }
    val queries = Array.fill(30) {
      def range(): (Double, Double) = rng.nextInt(8) match {
        case 0 => (Double.NegativeInfinity, Double.PositiveInfinity)
        case 1 => val v = grid(); (v + 1, v) // inverted
        case _ => val v = grid(); (v, v + rng.nextInt(4))
      }
      val (x0, x1) = range(); val (y0, y1) = range(); val (t0, t1) = range()
      val b = Array(x0, x1, y0, y1, t0, t1)
      if (rng.nextInt(6) == 0) b(rng.nextInt(6)) = Double.NaN
      Box(b(0), b(1), b(2), b(3), b(4), b(5))
    }
    (db, maxDepth, leafCap, queries)
  }

  private def hasNaNBound(b: Box): Boolean =
    Seq(b.xmin, b.xmax, b.ymin, b.ymax, b.tmin, b.tmax).exists(_.isNaN)

  test("trajsIn equals RangeQuery.inMemory on random databases and query boxes") {
    var onFace = 0     // hits through a point on a face of the query box
    var underNaN = 0   // hits through a point in a node with a NaN bound
    var nanQueries = 0 // queries with a NaN bound
    forAllN(rangeCases, 400) { case (db, maxDepth, leafCap, queries) =>
      val ot = new Octree(db, maxDepth, leafCap)
      def nodes(n: OctNode): Iterator[OctNode] =
        Iterator.single(n) ++ (if (n.isLeaf) Iterator.empty else n.children.iterator.flatMap(nodes))
      val nanNodes = nodes(ot.root).filter(n => hasNaNBound(n.box)).toVector
      for (q <- queries) {
        val hit = ot.trajsIn(q)
        assert(hit.length === db.length)
        assert(db.indices.filter(hit).map(db(_).id).toSet === RangeQuery.inMemory(db, q),
          s"maxDepth=$maxDepth leafCap=$leafCap q=$q lengths=${db.map(_.length).toSeq}")
        if (hasNaNBound(q)) nanQueries += 1
        for (tr <- db; p <- tr.points if q.contains(p))
          if (p.x == q.xmin || p.x == q.xmax || p.y == q.ymin || p.y == q.ymax ||
              p.t == q.tmin || p.t == q.tmax) onFace += 1
        for (n <- nanNodes if ot.pointsIn(n).exists { case (ti, pi) => q.contains(db(ti).points(pi)) })
          underNaN += 1
      }
    }
    assert(onFace > 5000 && underNaN > 1000 && nanQueries > 1000,
      s"onFace=$onFace underNaN=$underNaN nanQueries=$nanQueries")
  }

  // --- the top-down build against the incremental reference ---

  private def boxBits(b: Box): Seq[Long] =
    Seq(b.xmin, b.xmax, b.ymin, b.ymax, b.tmin, b.tmax).map(java.lang.Double.doubleToLongBits)

  /** The two trees agree on `flat` and node by node, in DFS order, on level,
    * box bits, m, q, `[lo, hi)`, remaining and leafness.
    */
  private def assertSameTree(ot: Octree, ref: OctreeReference, clue: String): Unit = {
    assert(java.util.Arrays.equals(ot.flat, ref.flat), s"$clue: flat")
    def rec(n: OctNode, r: OctreeReference.Node, path: String): Unit = {
      assert((n.level, boxBits(n.box), n.m, n.q, n.lo, n.hi, n.remaining, n.isLeaf) ===
        ((r.level, boxBits(r.box), r.m, r.q, r.lo, r.hi, r.remaining, r.isLeaf)), s"$clue: node $path")
      if (!n.isLeaf) for (ci <- 0 until 8) rec(n.children(ci), r.children(ci), path + ci)
    }
    rec(ot.root, ref.root, "root")
  }

  /** Build the reference and the partition tree (through the public
    * constructor, as one task, with no cut and at cut levels 2–4), give them
    * the same queries and insertions, and compare each with the reference.
    */
  private def checkAgainstReference(db: Array[Traj], maxDepth: Int, leafCap: Int,
                                    queries: Seq[Box], inserted: Seq[Point], clue: String): Unit = {
    val trees = Seq("default" -> new Octree(db, maxDepth, leafCap),
      "one task" -> Par.inCaller(new Octree(db, maxDepth, leafCap))) ++
      Seq(0, 2, 3, 4).map(cut => s"cut $cut" -> new Octree(db, maxDepth, leafCap, cut))
    val ref = new OctreeReference(db, maxDepth, leafCap)
    for ((name, ot) <- trees) assertSameTree(ot, ref, s"$clue $name built")
    queries.foreach { q => ref.addQuery(q); trees.foreach(_._2.addQuery(q)) }
    inserted.foreach { p => ref.markInserted(p); trees.foreach(_._2.markInserted(p)) }
    for ((name, ot) <- trees) assertSameTree(ot, ref, s"$clue $name used")
  }

  test("the partition build equals the incremental build on the bench database") {
    val db = repro.exp.Experiments.benchDb()
    val (_, _, _, _, tmin, tmax) = repro.core.Model.bounds(db)
    val queries = repro.queries.Workload.dataDist(db, 100, 2000, tmax - tmin, 7).toSeq
    val rng = new java.util.Random(5)
    val inserted = Seq.fill(500) { val tr = db(rng.nextInt(db.length)); tr.points(rng.nextInt(tr.length)) }
    for ((maxDepth, leafCap) <- Seq((8, 32), (8, 4), (3, 2), (6, 1), (5, 100), (1, 1), (8, 0)))
      checkAgainstReference(db, maxDepth, leafCap, queries, inserted.distinct, s"bench ($maxDepth, $leafCap)")
  }

  test("the partition build equals the incremental build on random databases") {
    // small integer grids repeat points; some coordinates are NaN; some
    // trajectories have zero or one point
    val cases = for {
      seed <- Gen.choose(0L, Long.MaxValue)
      nTrajs <- Gen.chooseNum(0, 10)
      maxDepth <- Gen.oneOf(1, 2, 3, 5, 12)
      leafCap <- Gen.oneOf(0, 1, 2, 4, 100)
    } yield {
      val rng = new java.util.Random(seed)
      def coord(): Double = if (rng.nextInt(8) == 0) Double.NaN else rng.nextInt(6).toDouble
      val db = Array.tabulate(nTrajs) { i =>
        val len = rng.nextInt(4) match { case 0 => 0; case 1 => 1; case _ => rng.nextInt(60) }
        Traj(i, Array.fill(len)(Point(coord(), coord(), coord())))
      }
      val queries = Seq.fill(10) { val (x, y, t) = (coord(), coord(), coord()); Box(x, x + 2, y, y + 2, t, t + 2) }
      val inserted = db.toSeq.flatMap(_.points).filter(_ => rng.nextInt(3) == 0)
      (db, maxDepth, leafCap, queries, inserted)
    }
    forAllN(cases, 300) { case (db, maxDepth, leafCap, queries, inserted) =>
      checkAgainstReference(db, maxDepth, leafCap, queries, inserted,
        s"maxDepth=$maxDepth leafCap=$leafCap lengths=${db.map(_.length).toSeq}")
    }
  }

  test("a child that receives a whole split splits only when one more point arrives") {
    // leafCap = 2: the root splits at its third point, and all three go to
    // child 0, which is then created holding leafCap + 1 points; the last
    // point (the bounds' far corner) goes to child 7
    val three = Seq(Point(0, 0, 0), Point(1, 0, 1), Point(0, 1, 2))
    val corner = Traj(1, Array(Point(100, 100, 100)))
    val stays = Array(Traj(0, three.toArray), corner)
    val ot = new Octree(stays, maxDepth = 5, leafCap = 2)
    assert(!ot.root.isLeaf && ot.root.children(0).isLeaf && ot.root.children(0).nPoints === 3)
    checkAgainstReference(stays, 5, 2, Nil, Nil, "nothing more arrives")
    // a fourth point in child 0 makes it split at leafCap + 2 points
    val grows = Array(Traj(0, (three :+ Point(2, 2, 3)).toArray), corner)
    val ot2 = new Octree(grows, maxDepth = 5, leafCap = 2)
    assert(!ot2.root.children(0).isLeaf && ot2.root.children(0).nPoints === 4)
    checkAgainstReference(grows, 5, 2, Nil, Nil, "one more arrives")
  }

  test("every cut level builds the incremental tree of an empty and a one-point database") {
    for ((db, name) <- Seq(Array.empty[Traj] -> "empty", Array(Traj(0, Array(Point(1, 2, 3)))) -> "one point",
                           Array(Traj(0, Array.empty[Point])) -> "one empty trajectory"))
      checkAgainstReference(db, 8, 32, Seq(Box(0, 2, 1, 3, 2, 4)), db.toSeq.flatMap(_.points), name)
  }

  test("octree of a single-point database works") {
    val db = Array(Traj(0, Array(Point(1, 2, 3))))
    val ot = new Octree(db, 5, 4)
    assert(ot.root.m === 1 && ot.root.nPoints === 1)
    assert(ot.pointsIn(ot.root).toSeq === Seq((0, 0)))
  }
}
