package repro.baselines

import repro.SparkSpec
import repro.core.{Model, Point, Traj}
import repro.data.TrajGen

/** Span-Search (direction-preserving, DAD-only) baseline tests. */
class SpanSearchSpec extends SparkSpec {

  private def greedy(tr: Traj, tol: Double) = SpanSearch.greedy(tr, tol, SpanSearch.directions(tr))

  test("greedy at tolerance 0 keeps every direction change") {
    val pts = Array(Point(0, 0, 0), Point(1, 0, 1), Point(2, 1, 2), Point(3, 1, 3))
    val kept = greedy(Traj(0, pts), 0.0)
    assert(kept.toSeq === Seq(0, 1, 2, 3))
  }

  test("greedy at tolerance 0 collapses a perfectly straight run") {
    val tr = Traj(0, Array.tabulate(10)(i => Point(i, 0, i)))
    assert(greedy(tr, 1e-9).toSeq === Seq(0, 9))
  }

  test("greedy at tolerance π keeps only the endpoints") {
    val rng = new java.util.Random(3)
    val tr = Traj(0, Array.tabulate(20)(i => Point(rng.nextDouble() * 100, rng.nextDouble() * 100, i)))
    assert(greedy(tr, math.Pi).toSeq === Seq(0, 19))
  }

  test("larger tolerance never keeps more points") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 3, 5)
    for (tr <- db) {
      val k1 = greedy(tr, 0.1).length
      val k2 = greedy(tr, 0.5).length
      val k3 = greedy(tr, 1.5).length
      assert(k1 >= k2 && k2 >= k3)
    }
  }

  test("simplifyOne meets the budget") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 4, 7)
    for (tr <- db) {
      val b = math.max(2, tr.length / 10)
      val kept = SpanSearch.simplifyOne(tr, b)
      assert(kept.length <= b + 1, s"budget $b, got ${kept.length}")
      assert(kept.head === 0 && kept.last === tr.length - 1)
    }
  }

  test("simplifyOne with ample budget returns everything") {
    val tr = TrajGen.genLocal(TrajGen.chengdu, 1, 9)(0)
    assert(SpanSearch.simplifyOne(tr, tr.length).length === tr.length)
  }

  test("kept indices are a strictly increasing subsequence with endpoints") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 5, 11)
    val s = SpanSearch.simplifyE(db, (0.1 * Model.totalPoints(db)).toInt)
    for (tr <- db) {
      val kept = s.kept(tr.id)
      assert(kept.toSeq === kept.sorted.toSeq)
      assert(kept.distinct.length === kept.length)
      assert(kept.head === 0 && kept.last === tr.length - 1)
    }
  }

  test("stationary (zero-length) stretches are collapsible") {
    val pts = Array(Point(0, 0, 0), Point(0, 0, 1), Point(0, 0, 2), Point(5, 5, 3))
    val kept = greedy(Traj(0, pts), 0.01)
    assert(kept.length <= 3)
  }

  test("greedy and simplifyOne keep the pinned indices over NaN coordinates and stationary points") {
    // recorded before the segment directions were shared across passes: a
    // NaN direction never fails the span check, and a zero-length anchor
    // over NaN segments (trajectory 1) is not a stationary stretch
    val nan = Double.NaN
    val tr = Traj(0, Array(Point(0, 0, 0), Point(1, 0, 1), Point(nan, 0, 2), Point(2, 0, 3),
      Point(2, 0, 4), Point(2, 0, 5), Point(3, 1, 6), Point(4, nan, 7), Point(5, 2, 8),
      Point(5, 2, 9), Point(6, 2, 10), Point(7, 3, 11), Point(nan, 3, 12), Point(7, 3, 13),
      Point(8, 5, 14), Point(9, 5, 15)))
    assert(Seq(0.0, 0.1, 0.5, 1.0, math.Pi).map(greedy(tr, _).toSeq) === Seq(
      Seq(0, 5, 7, 15), Seq(0, 5, 7, 15), Seq(0, 13, 14, 15), Seq(0, 15), Seq(0, 15)))
    assert(Seq(2, 4, 6, 8).map(SpanSearch.simplifyOne(tr, _).toSeq) === Seq(
      Seq(0, 15), Seq(0, 13, 14, 15), Seq(0, 5, 7, 15), Seq(0, 5, 7, 15)))
    val tr1 = Traj(1, Array(Point(0, 0, 0), Point(nan, 0, 1), Point(0, 0, 2), Point(1, 1, 3)))
    for (tol <- Seq(0.0, 1.0, math.Pi)) assert(greedy(tr1, tol).toSeq === Seq(0, 1, 3))
    // every pass is over budget 2, so simplifyOne keeps the endpoints
    assert(SpanSearch.simplifyOne(tr1, 2).toSeq === Seq(0, 3))
  }

  test("simplifyOne keeps its budget on a trajectory that returns to an earlier point") {
    // the zero-length anchor 0 -> 2 fails every pass, which keeps all 3 points
    val back = Traj(0, Array(Point(0, 0, 0), Point(1, 0, 1), Point(0, 0, 2)))
    assert(greedy(back, math.Pi).toSeq === Seq(0, 1, 2))
    assert(SpanSearch.simplifyOne(back, 2).toSeq === Seq(0, 2))
  }
}
