package repro.baselines

import repro.SparkSpec
import repro.core.{Model, Point, Traj}
import repro.data.TrajGen
import repro.traj.ErrorMeasures
import repro.traj.ErrorMeasures.SED

/** RLTS+ baseline tests: mechanics of the learned bottom-up policy. */
class RltsPlusSpec extends SparkSpec {

  private lazy val trainDb = TrajGen.genLocal(TrajGen.chengdu, 8, 21)

  test("untrained policy still produces valid simplifications") {
    val r = new RltsPlus(SED, seed = 17)
    val tr = trainDb(0)
    val kept = r.simplifyOne(tr, math.max(2, tr.length / 5))
    assert(kept.head === 0 && kept.last === tr.length - 1)
    assert(kept.length === math.max(2, tr.length / 5))
  }

  test("training runs and fills the replay memory") {
    val r = new RltsPlus(SED, seed = 5)
    r.train(trainDb.take(4), budgetFrac = 0.3, episodes = 1)
    assert(r.dqn.memory.size > 0)
    assert(r.dqn.epsilon < 1.0)
  }

  test("simplifyE respects per-trajectory budgets after training") {
    val r = new RltsPlus(SED, seed = 7)
    r.train(trainDb.take(3), 0.3, 1)
    val n = Model.totalPoints(trainDb)
    val w = (0.2 * n).toInt
    val ratio = w.toDouble / n // simplifyE re-derives the ratio from the budget
    val s = r.simplifyE(trainDb, w)
    for (tr <- trainDb)
      assert(s.kept(tr.id).length === math.max(2, (ratio * tr.length).toInt))
  }

  test("simplifyW meets the global budget") {
    val r = new RltsPlus(SED, seed = 9)
    r.train(trainDb.take(3), 0.3, 1)
    val w = (0.15 * Model.totalPoints(trainDb)).toInt
    assert(r.simplifyW(trainDb, w).totalPoints === w)
  }

  test("trained policy error is within a small factor of plain Bottom-Up") {
    val r = new RltsPlus(SED, seed = 11)
    r.train(trainDb.take(5), 0.25, 2)
    val tr = trainDb(5)
    val b = math.max(2, tr.length / 4)
    val eRl = ErrorMeasures.trajError(SED, tr, r.simplifyOne(tr, b))
    val eBu = ErrorMeasures.trajError(SED, tr, BottomUp.simplifyOne(SED, tr, b))
    assert(eRl <= math.max(eBu * 5, eBu + 50.0), s"RLTS+ $eRl vs Bottom-Up $eBu")
  }

  test("one policy per measure trains for all four measures") {
    val map = Baselines.trainRlts(trainDb.take(2), 0.4, episodes = 1)
    assert(map.keySet === ErrorMeasures.all.toSet)
    val tr = trainDb(0)
    for ((m, r) <- map) {
      val kept = r.simplifyOne(tr, 10)
      assert(kept.length === 10, m.name)
    }
  }

  test("short trajectories are skipped in training without error") {
    val tiny = Array(Traj(0, Array(Point(0, 0, 0), Point(1, 1, 1))))
    val r = new RltsPlus(SED, seed = 17)
    r.train(tiny, 0.5, 2) // must not throw
    assert(r.dqn.memory.size === 0)
  }
}
