package repro.rl

/** Deep Q-Network with replay memory, target network, ε-greedy exploration and
  * action masking — Section IV-C. The nets' 25 hidden units, the replay
  * capacity of 2000 and ε decaying to 0.1 by 0.99 are the paper's; they, the
  * batch of 32 and the target sync every 100 steps are the constants of
  * `object DQN`. γ and lr default to the paper's 0.99 and 0.01.
  */
final class DQN(
    val stateDim: Int,
    val nActions: Int,
    val gamma: Double = 0.99,
    val lr: Double = 0.01,
    seed: Long) extends Serializable {

  import DQN.{BatchSize, EpsDecay, EpsMin, Hidden, MemCapacity, TargetSyncEvery}

  val online: MLP = new MLP(stateDim, Hidden, nActions, seed)
  val target: MLP = new MLP(stateDim, Hidden, nActions, seed + 1)
  target.copyFrom(online)

  val memory = new ReplayMemory(MemCapacity, seed + 2)
  private val rng = new java.util.Random(seed + 3)
  var epsilon: Double = 1.0
  private var steps = 0

  // buffers of `trainStep`: the sampled batch, its regression inputs, and
  // its non-terminal transitions' next states with their batch slots
  private val batch = new Array[Transition](BatchSize)
  private val states = new Array[Array[Double]](BatchSize)
  private val actions = new Array[Int](BatchSize)
  private val targets = new Array[Double](BatchSize)
  private val nexts = new Array[Array[Double]](BatchSize)
  private val slots = new Array[Int](BatchSize)
  private val aStars = new Array[Int](BatchSize)
  private val q = new Array[Double](nActions)

  /** Greedy action among valid ones; ε-greedy when `explore`. `mask(a)` marks
    * valid actions; at least one action must be valid.
    */
  def selectAction(state: Array[Double], mask: Array[Boolean], explore: Boolean): Int = {
    val nValid = mask.count(identity)
    require(nValid > 0, "no valid action")
    if (explore && rng.nextDouble() < epsilon) {
      // the k-th valid action
      var k = rng.nextInt(nValid)
      var a = 0
      while (!mask(a) || k > 0) { if (mask(a)) k -= 1; a += 1 }
      a
    } else DQN.maskedArgmax(online.forward(state), mask)
  }

  def remember(t: Transition): Unit = memory.add(t)

  /** One learning step: sample a batch, regress online Q toward the Double-DQN
    * Bellman target (action argmax from the online net, value from the target
    * net — the plain max target overestimates badly with sparse rewards and
    * masked action sets), periodically sync the target network. Returns the
    * batch loss (0 when memory is smaller than the batch). Both nets' passes
    * run over the whole batch at once (`MLP.forwardBatch`), with the bits of
    * the per-sample passes. Allocates nothing.
    */
  def trainStep(): Double = {
    if (memory.size < BatchSize) return 0.0
    memory.sampleInto(batch)
    var n = 0 // non-terminal transitions
    var b = 0
    while (b < BatchSize) {
      val t = batch(b)
      states(b) = t.state
      actions(b) = t.action
      targets(b) = t.reward
      if (!t.done) { nexts(n) = t.nextState; slots(n) = b; n += 1 }
      b += 1
    }
    if (n > 0) {
      val qOnline = online.forwardBatch(nexts, n)
      var l = 0
      while (l < n) {
        var a = 0
        while (a < nActions) { q(a) = qOnline(a)(l); a += 1 }
        aStars(l) = DQN.maskedArgmax(q, batch(slots(l)).nextMask)
        l += 1
      }
      val qTarget = target.forwardBatch(nexts, n)
      l = 0
      while (l < n) {
        val aStar = aStars(l)
        if (aStar >= 0) targets(slots(l)) = batch(slots(l)).reward + gamma * qTarget(aStar)(l)
        l += 1
      }
    }
    val loss = online.trainBatch(states, actions, targets, lr)
    steps += 1
    if (steps % TargetSyncEvery == 0) target.copyFrom(online)
    loss
  }

  /** Decay the exploration rate by one step; `Training` calls it once per
    * reward window (every Δ insertions), `RltsPlus` once per trajectory episode.
    */
  def decayEpsilon(): Unit = epsilon = math.max(EpsMin, epsilon * EpsDecay)
}

object DQN {

  /** Hidden units of both nets. */
  val Hidden = 25

  /** Replay memory capacity. */
  val MemCapacity = 2000

  /** Transitions per learning step. */
  val BatchSize = 32

  /** Learning steps between target-network syncs. */
  val TargetSyncEvery = 100

  /** The exploration rate's floor. */
  val EpsMin = 0.1

  /** The exploration rate's factor per `decayEpsilon`. */
  val EpsDecay = 0.99

  /** The valid action with the largest Q-value, or -1 if no action is
    * valid. Ties go to the first maximum in index order under
    * `java.lang.Double.compare` (NaN above every number, -0.0 below 0.0), as
    * `mask.indices.filter(mask).maxBy(q)` picks it.
    */
  def maskedArgmax(q: Array[Double], mask: Array[Boolean]): Int = {
    var best = -1
    var a = 0
    while (a < mask.length) {
      if (mask(a) && (best < 0 || java.lang.Double.compare(q(a), q(best)) > 0)) best = a
      a += 1
    }
    best
  }
}
