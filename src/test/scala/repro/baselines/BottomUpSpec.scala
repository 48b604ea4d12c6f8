package repro.baselines

import repro.SparkSpec
import repro.core.{Model, Point, Traj}
import repro.data.TrajGen
import repro.traj.ErrorMeasures
import repro.traj.ErrorMeasures.{SED, PED}

/** Bottom-Up baseline tests, including the pluggable-chooser core. */
class BottomUpSpec extends SparkSpec {

  private def zigzag(n: Int): Traj =
    Traj(0, Array.tabulate(n)(i => Point(i, if (i % 2 == 0) 0 else 10, i)))

  test("simplifyOne respects the budget and keeps endpoints") {
    val tr = zigzag(20)
    for (m <- ErrorMeasures.all) {
      val kept = BottomUp.simplifyOne(m, tr, 6)
      assert(kept.length === 6, m.name)
      assert(kept.head === 0 && kept.last === 19, m.name)
    }
  }

  test("budget >= n keeps everything") {
    val tr = zigzag(5)
    assert(BottomUp.simplifyOne(SED, tr, 5).toSeq === Seq(0, 1, 2, 3, 4))
  }

  test("a redundant collinear point is dropped first") {
    // index 2 lies exactly on the line (and schedule) of its neighbours
    val pts = Array(Point(0, 0, 0), Point(1, 5, 1), Point(2, 5, 2), Point(3, 5, 3), Point(4, 0, 4))
    val kept = BottomUp.simplifyOne(SED, Traj(0, pts), 4)
    assert(!kept.contains(2))
  }

  test("drops never remove endpoints") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 6, 3)
    val s = BottomUp.simplifyW(SED, db, 2 * db.length + 10)
    for (tr <- db) {
      val kept = s.kept(tr.id)
      assert(kept.head === 0 && kept.last === tr.length - 1)
    }
  }

  test("simplifyW meets the global budget exactly") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 6, 5)
    val w = (0.1 * Model.totalPoints(db)).toInt
    assert(BottomUp.simplifyW(PED, db, w).totalPoints === w)
  }

  test("simplifyW stops at 2 points per trajectory when the budget is tiny") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 4, 7)
    val s = BottomUp.simplifyW(SED, db, 1) // infeasible: floor is 2 per trajectory
    assert(s.totalPoints === 2 * db.length)
  }

  test("simplifyE applies per-trajectory budgets") {
    val db = TrajGen.genLocal(TrajGen.chengdu, 6, 9)
    val n = Model.totalPoints(db)
    val w = (0.1 * n).toInt
    val r = w.toDouble / n // simplifyE re-derives the ratio from the budget
    val s = BottomUp.simplifyE(SED, db, w)
    for (tr <- db) {
      val b = math.max(2, (r * tr.length).toInt)
      assert(s.kept(tr.id).length === b, s"traj ${tr.id}")
    }
  }

  test("bottom-up error is comparable to top-down on the same budget") {
    val tr = zigzag(40)
    val bu = ErrorMeasures.trajError(SED, tr, BottomUp.simplifyOne(SED, tr, 10))
    val td = ErrorMeasures.trajError(SED, tr, TopDown.simplifyOne(SED, tr, 10))
    // both heuristics; neither should be catastrophically worse
    assert(bu <= td * 3 + 1e-9 && td <= bu * 3 + 1e-9)
  }

  test("the chooser sees k cost-sorted candidates") {
    val tr = zigzag(30)
    var sawSorted = true
    var sawK = 0
    BottomUp.run(SED, Array(tr), 5, k = 3, choose = { cands =>
      sawK = math.max(sawK, cands.length)
      if (cands.length > 1)
        sawSorted &&= cands.iterator.sliding(2).forall(w => w.head.cost <= w(1).cost + 1e-12)
      0
    })
    assert(sawK === 3)
    assert(sawSorted)
  }

  test("a chooser picking the worst candidate still satisfies the budget") {
    val tr = zigzag(30)
    val s = BottomUp.run(SED, Array(tr), 8, k = 3, choose = c => c.length - 1)
    assert(s.kept(0L).length === 8)
  }

  test("stale heap entries are skipped (costs reflect current neighbours)") {
    // after dropping points, merged segments grow; final simplification must
    // still be a valid subsequence with endpoints
    val db = TrajGen.genLocal(TrajGen.chengdu, 3, 13)
    val s = BottomUp.simplifyW(SED, db, (0.05 * Model.totalPoints(db)).toInt.max(6))
    for (tr <- db) {
      val kept = s.kept(tr.id)
      assert(kept.toSeq === kept.sorted.toSeq)
      assert(kept.distinct.length === kept.length)
    }
  }
}
