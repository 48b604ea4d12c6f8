package repro.rl

/** One DQN transition. `nextMask(a)` marks actions valid in the next state
  * (invalid actions are excluded from the bootstrap max). `done` marks
  * episode termination (no bootstrap).
  */
final case class Transition(
    state: Array[Double],
    action: Int,
    reward: Double,
    nextState: Array[Double],
    nextMask: Array[Boolean],
    done: Boolean)

/** Fixed-capacity ring-buffer replay memory with uniform sampling, as in the
  * DQN of Mnih et al. that the paper adopts (capacity 2000 in the paper).
  */
final class ReplayMemory(val capacity: Int, seed: Long) {
  private val buf = new Array[Transition](capacity)
  private var next = 0
  private var filled = 0
  private val rng = new java.util.Random(seed)

  def size: Int = filled

  def add(t: Transition): Unit = {
    buf(next) = t
    next = (next + 1) % capacity
    if (filled < capacity) filled += 1
  }

  /** Fill `out` with a uniform sample with replacement: slot `i` gets the
    * transition at `rng.nextInt(size)`, drawn in slot order. Needs at least
    * `out.length` transitions stored.
    */
  def sampleInto(out: Array[Transition]): Unit = {
    require(filled >= out.length, s"sample of ${out.length} from $filled transitions")
    var i = 0
    while (i < out.length) { out(i) = buf(rng.nextInt(filled)); i += 1 }
  }
}
