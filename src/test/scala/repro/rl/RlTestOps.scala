package repro.rl

/** Test conveniences over the allocation-free training API of `MLP` and
  * `ReplayMemory`.
  */
object RlTestOps {

  implicit final class MLPTestOps(private val net: MLP) extends AnyVal {

    /** Hidden activations for input x. */
    def hiddenOut(x: Array[Double]): Array[Double] = net.hiddenInto(x, new Array[Double](net.hidden))

    /** `MLP.trainBatch` on a batch of (state, action, tdTarget) triples. */
    def trainBatch(batch: Seq[(Array[Double], Int, Double)], lr: Double): Double = {
      val (xs, as, ys) = batch.unzip3
      net.trainBatch(xs.toArray, as.toArray, ys.toArray, lr)
    }
  }

  implicit final class ReplayMemoryTestOps(private val m: ReplayMemory) extends AnyVal {

    /** A uniform sample of `min(n, size)` transitions (none if `n <= 0`),
      * drawn as `sampleInto` draws.
      */
    def sample(n: Int): Seq[Transition] = {
      val out = new Array[Transition](math.max(0, math.min(n, m.size)))
      m.sampleInto(out)
      out.toSeq
    }
  }
}
