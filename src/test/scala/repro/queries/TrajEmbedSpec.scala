package repro.queries

import repro.SparkSpec
import repro.core.{Point, Traj}

/** Tests of the fixed resampling embedding (t2vec substitute). */
class TrajEmbedSpec extends SparkSpec {

  private val frame = (0.0, 100.0, 0.0, 100.0) // xmin, xspan, ymin, yspan

  private def emb(tr: Traj) = TrajEmbed.embed(tr, frame._1, frame._2, frame._3, frame._4)

  // the kNN-embedding dissimilarity, as `KnnQuery` computes it
  private def dist(a: Traj, b: Traj) = TrajEmbed.l2(emb(a), emb(b))

  test("embedding has dimension 2L") {
    val tr = Traj(0, Array(Point(0, 0, 0), Point(10, 10, 10)))
    assert(emb(tr).length === 2 * TrajEmbed.L)
  }

  test("embedding of an empty trajectory is the zero vector") {
    assert(emb(Traj(0, Array.empty)).forall(_ === 0.0))
  }

  test("single-point trajectory repeats its location") {
    val e = emb(Traj(0, Array(Point(50, 25, 5))))
    assert(e.toSeq === Seq.fill(TrajEmbed.L)(Seq(0.5, 0.25)).flatten)
  }

  test("self-distance is 0") {
    val tr = Traj(0, Array(Point(0, 0, 0), Point(10, 20, 10), Point(30, 10, 20)))
    assert(dist(tr, tr) === 0.0)
  }

  test("distance is symmetric and positive for different trajectories") {
    val a = Traj(0, Array(Point(0, 0, 0), Point(10, 0, 10)))
    val b = Traj(1, Array(Point(0, 50, 0), Point(10, 50, 10)))
    val dab = dist(a, b)
    val dba = dist(b, a)
    assert(dab === dba && dab > 0)
  }

  test("closer trajectories embed closer") {
    val q = Traj(0, Array(Point(0, 0, 0), Point(10, 0, 10)))
    val near = Traj(1, Array(Point(0, 1, 0), Point(10, 1, 10)))
    val far = Traj(2, Array(Point(0, 80, 0), Point(10, 80, 10)))
    val dNear = dist(q, near)
    val dFar = dist(q, far)
    assert(dNear < dFar)
  }

  test("embedding is invariant to redundant straight-line points (time-linear resampling)") {
    // a simplified trajectory that dropped collinear constant-speed points
    // embeds (almost) identically — the property QDTS relies on
    val full = Traj(0, Array.tabulate(11)(i => Point(i * 10.0, 0, i * 10.0)))
    val simp = Traj(0, Array(Point(0, 0, 0), Point(100, 0, 100)))
    val d = dist(full, simp)
    assert(d < 1e-9, s"d=$d")
  }

  test("l2 computes Euclidean distance") {
    assert(TrajEmbed.l2(Array(0.0, 0.0), Array(3.0, 4.0)) === 5.0)
  }
}
