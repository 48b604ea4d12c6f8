package repro.rl

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}
import repro.rl.RlTestOps._

/** Tests of the replay memory and the DQN learner. */
class DqnSpec extends SparkSpec with PropSupport {

  private def tr(r: Double, done: Boolean = true): Transition =
    Transition(Array(0.0), 0, r, Array(0.0), Array(true), done)

  test("replay memory grows to capacity then overwrites") {
    val m = new ReplayMemory(4, seed = 11)
    (1 to 3).foreach(i => m.add(tr(i)))
    assert(m.size === 3)
    (4 to 9).foreach(i => m.add(tr(i)))
    assert(m.size === 4)
    // oldest entries overwritten: all sampled rewards are from {6,7,8,9}
    val rewards = m.sample(100).map(_.reward).toSet
    assert(rewards.subsetOf(Set(6.0, 7.0, 8.0, 9.0)))
  }

  test("sample of an empty memory is empty") {
    assert(new ReplayMemory(4, seed = 11).sample(10).isEmpty)
  }

  test("sample size is capped by fill level") {
    val m = new ReplayMemory(10, seed = 11)
    m.add(tr(1)); m.add(tr(2))
    assert(m.sample(5).size === 2)
  }

  test("selectAction respects the mask in greedy mode") {
    val dqn = new DQN(2, 3, seed = 41)
    val s = Array(0.5, 0.5)
    val a = dqn.selectAction(s, Array(false, true, false), explore = false)
    assert(a === 1)
  }

  test("selectAction respects the mask under exploration") {
    val dqn = new DQN(2, 4, seed = 43)
    dqn.epsilon = 1.0
    val picks = (0 until 50).map(_ =>
      dqn.selectAction(Array(0.1, 0.2), Array(true, false, true, false), explore = true)).toSet
    assert(picks.subsetOf(Set(0, 2)))
    assert(picks.size === 2) // both valid actions get explored
  }

  test("selectAction with no valid action throws") {
    val dqn = new DQN(2, 3, seed = 13)
    intercept[IllegalArgumentException] {
      dqn.selectAction(Array(0.0, 0.0), Array(false, false, false), explore = false)
    }
  }

  test("trainStep is a no-op until the batch fills") {
    val dqn = new DQN(1, 2, seed = 47)
    assert(dqn.trainStep() === 0.0)
    dqn.remember(tr(1.0))
    assert(dqn.trainStep() === 0.0)
  }

  test("epsilon decays to the floor") {
    val dqn = new DQN(1, 2, seed = 13)
    dqn.decayEpsilon()
    assert(dqn.epsilon === 0.99)
    // by 0.99 per call: 0.99^229 ≈ 0.1002 and 0.99^230 ≈ 0.0991, so the 0.1
    // floor is reached at the 230th decay
    for (_ <- 2 to 229) dqn.decayEpsilon()
    assert(dqn.epsilon > DQN.EpsMin)
    dqn.decayEpsilon()
    assert(dqn.epsilon === DQN.EpsMin)
    dqn.decayEpsilon()
    assert(dqn.epsilon === DQN.EpsMin)
  }

  test("DQN learns a two-armed bandit (action 1 pays more)") {
    val dqn = new DQN(1, 2, lr = 0.02, seed = 53)
    val s = Array(1.0)
    for (_ <- 0 until 300) {
      dqn.remember(Transition(s, 0, 0.0, s, Array(true, true), done = true))
      dqn.remember(Transition(s, 1, 1.0, s, Array(true, true), done = true))
      dqn.trainStep()
    }
    val q = dqn.online.forward(s)
    assert(q(1) > q(0), s"q=${q.toSeq}")
    assert(dqn.selectAction(s, Array(true, true), explore = false) === 1)
  }

  test("DQN bootstraps through non-terminal transitions (two-step chain)") {
    // s0 --a0--> s1 (r 0), s1 --a0--> done (r 1); gamma=0.9 => Q(s0,a0) -> ~0.9
    val dqn = new DQN(1, 1, gamma = 0.9, lr = 0.02, seed = 59)
    val s0 = Array(0.0); val s1 = Array(1.0)
    for (_ <- 0 until 600) {
      dqn.remember(Transition(s0, 0, 0.0, s1, Array(true), done = false))
      dqn.remember(Transition(s1, 0, 1.0, s1, Array(true), done = true))
      dqn.trainStep()
    }
    assert(math.abs(dqn.online.forward(s1)(0) - 1.0) < 0.2)
    assert(math.abs(dqn.online.forward(s0)(0) - 0.9) < 0.25)
  }

  test("masked next-state actions are excluded from the bootstrap max") {
    // next state has a huge Q for action 1, but the mask forbids it
    val dqn = new DQN(1, 2, gamma = 1.0, lr = 0.05, seed = 61)
    val s0 = Array(0.0); val s1 = Array(1.0)
    // teach Q(s1,1) = 10 and Q(s1,0) = 0
    for (_ <- 0 until 400) {
      dqn.remember(Transition(s1, 1, 10.0, s1, Array(true, true), done = true))
      dqn.remember(Transition(s1, 0, 0.0, s1, Array(true, true), done = true))
      dqn.trainStep()
    }
    // now teach s0 with next state s1 but action 1 masked: target = 0 + max(Q(s1,0)) ≈ 0
    val dqn2 = new DQN(1, 2, gamma = 1.0, lr = 0.05, seed = 61)
    for (_ <- 0 until 400) {
      dqn2.remember(Transition(s1, 1, 10.0, s1, Array(true, true), done = true))
      dqn2.remember(Transition(s1, 0, 0.0, s1, Array(true, true), done = true))
      dqn2.remember(Transition(s0, 0, 0.0, s1, Array(true, false), done = false))
      dqn2.trainStep()
    }
    assert(dqn2.online.forward(s0)(0) < 5.0, "bootstrap leaked through the mask")
  }

  test("maskedArgmax picks the first of tied maxima") {
    assert(DQN.maskedArgmax(Array(1.0, 3.0, 3.0, 2.0), Array(true, true, true, true)) === 1)
    assert(DQN.maskedArgmax(Array(3.0, 3.0, 3.0), Array(false, true, true)) === 1)
    assert(DQN.maskedArgmax(Array(0.0, -0.0), Array(true, true)) === 0)
    // -0.0 ranks below 0.0, as under maxBy's default Ordering[Double]
    assert(DQN.maskedArgmax(Array(-0.0, 0.0), Array(true, true)) === 1)
  }

  test("maskedArgmax ignores a masked-out action with the largest Q") {
    assert(DQN.maskedArgmax(Array(5.0, 9.0, 1.0), Array(true, false, true)) === 0)
    assert(DQN.maskedArgmax(Array(9.0, -1.0), Array(false, true)) === 1)
    assert(DQN.maskedArgmax(Array(9.0, 1.0), Array(false, false)) === -1)
  }

  test("maskedArgmax agrees with filter + maxBy, NaN and signed zeros included") {
    val rng = new java.util.Random(71)
    val values = Array(Double.NaN, -0.0, 0.0, 1.0, -1.0, 2.0, Double.NegativeInfinity)
    for (_ <- 0 until 2000) {
      val n = 1 + rng.nextInt(9)
      val q = Array.fill(n)(values(rng.nextInt(values.length)))
      val mask = Array.fill(n)(rng.nextInt(3) > 0)
      val valid = mask.indices.filter(mask)
      val expected = if (valid.isEmpty) -1 else valid.maxBy(q)
      assert(DQN.maskedArgmax(q, mask) === expected, s"q=${q.toSeq} mask=${mask.toSeq}")
    }
  }

  /** `trainStep` as written before it reused its batch buffers, on the
    * per-sample kernel `ReferenceMLP`: the reference the batch-innermost
    * step is checked against. `step` is the 1-based count of learning steps
    * taken, for the target sync.
    */
  private def referenceTrainStep(d: DQN, step: Int): Double = {
    val batch = d.memory.sample(DQN.BatchSize).map { t =>
      val tgt =
        if (t.done) t.reward
        else {
          val valid = t.nextMask.indices.filter(t.nextMask)
          if (valid.isEmpty) t.reward
          else {
            val qOnline = d.online.forward(t.nextState)
            val aStar = valid.maxBy(qOnline)
            t.reward + d.gamma * d.target.forward(t.nextState)(aStar)
          }
        }
      (t.state, t.action, tgt)
    }
    val (xs, as, ys) = batch.unzip3
    val loss = ReferenceMLP.trainBatch(d.online, xs.toArray, as.toArray, ys.toArray, d.lr)
    if (step % DQN.TargetSyncEvery == 0) d.target.copyFrom(d.online)
    loss
  }

  private def bits(w: NetWeights): Seq[Long] =
    (w.w1.flatten ++ w.b1 ++ w.w2.flatten ++ w.b2).map(java.lang.Double.doubleToLongBits).toSeq

  /** Feed `ts` to two DQNs built by `make`, taking a learning step on both
    * after each transition, one by `trainStep` and one by the reference, and
    * assert equal loss, online and target bits at every step.
    */
  private def assertStepsMatch(make: () => DQN, ts: Seq[Transition], clue: String): Unit = {
    val a = make(); val b = make()
    var step = 0
    for (t <- ts) {
      a.remember(t); b.remember(t)
      if (b.memory.size >= DQN.BatchSize) {
        step += 1
        val la = a.trainStep()
        val lb = referenceTrainStep(b, step)
        assert(java.lang.Double.doubleToLongBits(la) === java.lang.Double.doubleToLongBits(lb),
          s"loss, step $step, $clue")
        assert(bits(a.online.snapshot) === bits(b.online.snapshot), s"online, step $step, $clue")
        assert(bits(a.target.snapshot) === bits(b.target.snapshot), s"target, step $step, $clue")
      } else assert(a.trainStep() === 0.0)
    }
  }

  /** Enough transitions for one full batch and then `TargetSyncEvery`
    * learning steps, so at least one target sync happens.
    */
  private val toFirstSync = DQN.BatchSize + DQN.TargetSyncEvery

  test("trainStep equals the reference step bit for bit") {
    val rng = new java.util.Random(79)
    def vec() = Array.fill(3)(rng.nextGaussian())
    // mixed terminal / bootstrap transitions with partial (sometimes empty) next masks
    val ts = Seq.fill(toFirstSync)(Transition(vec(), rng.nextInt(4), rng.nextGaussian(), vec(),
      Array.fill(4)(rng.nextInt(3) == 0), done = rng.nextInt(3) == 0))
    assertStepsMatch(() => new DQN(3, 4, seed = 73), ts, "")
  }

  test("property: trainStep equals the reference step at every step, for any batch") {
    // special values: NaN, the infinities and -0.0 in states, next states and rewards
    val special = Array(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -0.0)
    val gen = for {
      stateDim <- Gen.choose(1, 6)
      nActions <- Gen.choose(1, 5)
      terminal <- Gen.oneOf("all", "none", "mixed")
      masks <- Gen.oneOf("empty", "full", "mixed")
      specialRate <- Gen.oneOf(0.0, 0.0, 0.02, 0.3)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (stateDim, nActions, terminal, masks, specialRate, seed)
    forAllN(gen, n = 60) { case c @ (stateDim, nActions, terminal, masks, specialRate, seed) =>
      val rng = new java.util.Random(seed)
      def value(): Double =
        if (rng.nextDouble() < specialRate) special(rng.nextInt(special.length)) else rng.nextGaussian()
      def vec() = Array.fill(stateDim)(value())
      val ts = Seq.fill(toFirstSync + 12)(Transition(vec(), rng.nextInt(nActions), value(), vec(),
        Array.fill(nActions)(masks match {
          case "empty" => false
          case "full" => true
          case _ => rng.nextInt(3) == 0
        }),
        done = terminal match {
          case "all" => true
          case "none" => false
          case _ => rng.nextBoolean()
        }))
      assertStepsMatch(() => new DQN(stateDim, nActions, seed = seed), ts, s"case $c")
    }
  }

  test("a state or non-terminal next state of the wrong length fails as the reference does") {
    def ok() = Array(0.1, -0.2, 0.3)
    val cases = Seq(
      "short state" -> Transition(Array(0.1, 0.2), 0, 1.0, ok(), Array(true, true), done = false),
      "long state" -> Transition(Array(0.1, 0.2, 0.3, 0.4), 1, 1.0, ok(), Array(true, true), done = true),
      "short next state" -> Transition(ok(), 0, 1.0, Array(0.5), Array(true, false), done = false),
      "long next state" -> Transition(ok(), 1, 1.0, Array.fill(5)(0.5), Array(true, true), done = false))
    for ((name, bad) <- cases) {
      def make() = {
        val d = new DQN(3, 2, seed = 83)
        // only the bad transition is stored, so every draw is it
        for (_ <- 0 until DQN.BatchSize) d.remember(bad)
        d
      }
      val a = make()
      val before = bits(a.online.snapshot)
      val e = intercept[IllegalArgumentException](a.trainStep())
      val len = if (name.endsWith("next state")) bad.nextState.length else bad.state.length
      assert(e.getMessage === s"requirement failed: input dim $len != 3", name)
      assert(intercept[IllegalArgumentException](referenceTrainStep(make(), 1)).getMessage ===
        e.getMessage, name)
      assert(bits(a.online.snapshot) === before, name)
    }
  }

  test("target network sync copies online weights") {
    val dqn = new DQN(1, 2, seed = 67)
    for (i <- 0 until 40) { dqn.remember(tr(i)); }
    val x = Array(0.3)
    for (_ <- 1 until DQN.TargetSyncEvery) dqn.trainStep()
    assert(dqn.online.forward(x).toSeq !== dqn.target.forward(x).toSeq)
    dqn.trainStep() // the 100th step syncs
    assert(dqn.online.forward(x).toSeq === dqn.target.forward(x).toSeq)
  }
}
