package repro.rl

/** Serializable snapshot of MLP weights (broadcast to Spark executors for
  * distributed inference).
  */
final case class NetWeights(
    inDim: Int, hidden: Int, outDim: Int,
    w1: Array[Array[Double]], b1: Array[Double],
    w2: Array[Array[Double]], b2: Array[Double]) extends Serializable

/** Two-layer feed-forward network: `in -> hidden (tanh) -> out (linear)` —
  * the exact architecture the paper uses for both agents (25 hidden units).
  * Implemented from scratch (no ML library in the sealed image) with an Adam
  * optimiser and mean-squared-error loss on the Q-value of the taken action.
  */
final class MLP(val inDim: Int, val hidden: Int, val outDim: Int, seed: Long = 7)
    extends Serializable {

  private val rng = new java.util.Random(seed)
  private def xavier(fanIn: Int, fanOut: Int): Double =
    rng.nextGaussian() * math.sqrt(2.0 / (fanIn + fanOut))

  val w1: Array[Array[Double]] = Array.fill(hidden, inDim)(xavier(inDim, hidden))
  val b1: Array[Double] = Array.fill(hidden)(0.0)
  val w2: Array[Array[Double]] = Array.fill(outDim, hidden)(xavier(hidden, outDim))
  val b2: Array[Double] = Array.fill(outDim)(0.0)

  // Adam state
  private val mW1 = Array.fill(hidden, inDim)(0.0); private val vW1 = Array.fill(hidden, inDim)(0.0)
  private val mB1 = Array.fill(hidden)(0.0); private val vB1 = Array.fill(hidden)(0.0)
  private val mW2 = Array.fill(outDim, hidden)(0.0); private val vW2 = Array.fill(outDim, hidden)(0.0)
  private val mB2 = Array.fill(outDim)(0.0); private val vB2 = Array.fill(outDim)(0.0)
  private var adamT = 0
  private val beta1 = 0.9; private val beta2 = 0.999; private val adamEps = 1e-8

  // buffers of the training kernel, reused by every `trainBatch` call
  private val gW1 = Array.ofDim[Double](hidden, inDim); private val gB1 = new Array[Double](hidden)
  private val gW2 = Array.ofDim[Double](outDim, hidden); private val gB2 = new Array[Double](outDim)
  private val dh = new Array[Double](hidden)
  // lanes of `forwardBatch` (`xT(i)(b)` is input i of sample b), grown to
  // the largest batch seen
  private var xT = Array.ofDim[Double](inDim, 0); private var hT = Array.ofDim[Double](hidden, 0)
  private var qT = Array.ofDim[Double](outDim, 0)

  /** Hidden activations for input x, written to `h`; returns `h`. */
  private[rl] def hiddenInto(x: Array[Double], h: Array[Double]): Array[Double] = {
    require(x.length == inDim, s"input dim ${x.length} != $inDim")
    var j = 0
    while (j < hidden) {
      var s = b1(j); val w = w1(j)
      var i = 0
      while (i < inDim) { s += w(i) * x(i); i += 1 }
      h(j) = FdLibm.tanh(s)
      j += 1
    }
    h
  }

  /** Q-values for input x. */
  def forward(x: Array[Double]): Array[Double] = {
    val h = hiddenInto(x, new Array[Double](hidden))
    val out = new Array[Double](outDim)
    var k = 0
    while (k < outDim) {
      var s = b2(k); val w = w2(k)
      var j = 0
      while (j < hidden) { s += w(j) * h(j); j += 1 }
      out(k) = s
      k += 1
    }
    out
  }

  /** Q-values of the samples `xs(0 until n)`, transposed: `qT(k)(b)` is
    * Q-value k of sample b, in a buffer of this net that its next batch call
    * overwrites. The batch index is the innermost loop, and each sample's
    * sums add their terms in the order `forward` does, so they have its
    * bits. Allocates nothing once it has seen a batch of this size.
    */
  private[rl] def forwardBatch(xs: Array[Array[Double]], n: Int): Array[Array[Double]] = {
    if (hT(0).length < n) {
      xT = Array.ofDim[Double](inDim, n); hT = Array.ofDim[Double](hidden, n); qT = Array.ofDim[Double](outDim, n)
    }
    var b = 0
    while (b < n) {
      val x = xs(b)
      require(x.length == inDim, s"input dim ${x.length} != $inDim")
      var i = 0
      while (i < inDim) { xT(i)(b) = x(i); i += 1 }
      b += 1
    }
    var j = 0
    while (j < hidden) {
      val h = hT(j); val w = w1(j)
      java.util.Arrays.fill(h, 0, n, b1(j))
      var i = 0
      while (i < inDim) {
        val wi = w(i); val x = xT(i)
        b = 0
        while (b < n) { h(b) += wi * x(b); b += 1 }
        i += 1
      }
      b = 0
      while (b < n) { h(b) = FdLibm.tanh(h(b)); b += 1 }
      j += 1
    }
    var k = 0
    while (k < outDim) {
      val q = qT(k); val w = w2(k)
      java.util.Arrays.fill(q, 0, n, b2(k))
      j = 0
      while (j < hidden) {
        val wj = w(j); val h = hT(j)
        b = 0
        while (b < n) { q(b) += wj * h(b); b += 1 }
        j += 1
      }
      k += 1
    }
    qT
  }

  /** One Adam step on a batch of (state `xs(b)`, action `as(b)`, tdTarget
    * `ys(b)`): minimises mean (Q(s)(a) - target)^2. Returns the batch loss.
    * The forward pass runs batch-innermost (`forwardBatch`); the gradients
    * are summed sample by sample in batch order. The batch must not be
    * empty. Allocates nothing once it has seen a batch of this size.
    */
  private[rl] def trainBatch(xs: Array[Array[Double]], as: Array[Int], ys: Array[Double],
                             lr: Double): Double = {
    val n = xs.length
    // an empty batch has no gradient, but Adam's momentum would still move every weight
    require(n > 0, "empty training batch")
    val qT = forwardBatch(xs, n)
    var j = 0
    while (j < hidden) { java.util.Arrays.fill(gW1(j), 0.0); j += 1 }
    java.util.Arrays.fill(gB1, 0.0)
    var k = 0
    while (k < outDim) { java.util.Arrays.fill(gW2(k), 0.0); k += 1 }
    java.util.Arrays.fill(gB2, 0.0)
    var loss = 0.0
    val bs = n.toDouble
    var b = 0
    while (b < n) {
      val x = xs(b); val a = as(b)
      val err = qT(a)(b) - ys(b)
      loss += err * err / bs
      val dq = 2.0 * err / bs
      // output layer grads + backprop into hidden
      j = 0
      while (j < hidden) {
        val h = hT(j)(b)
        gW2(a)(j) += dq * h
        dh(j) = dq * w2(a)(j) * (1 - h * h) // tanh'
        j += 1
      }
      gB2(a) += dq
      j = 0
      while (j < hidden) {
        val d = dh(j)
        if (d != 0.0) {
          var i = 0
          val w = gW1(j)
          while (i < inDim) { w(i) += d * x(i); i += 1 }
          gB1(j) += d
        }
        j += 1
      }
      b += 1
    }
    adamStep(gW1, gB1, gW2, gB2, lr)
    loss
  }

  /** Apply the gradients `(gW1, gB1, gW2, gB2)` by one Adam step. */
  private[rl] def adamStep(gW1: Array[Array[Double]], gB1: Array[Double],
                           gW2: Array[Array[Double]], gB2: Array[Double], lr: Double): Unit = {
    adamT += 1
    val bc1 = 1 - math.pow(beta1, adamT); val bc2 = 1 - math.pow(beta2, adamT)
    @inline def upd(p: Array[Double], g: Array[Double], m: Array[Double], v: Array[Double]): Unit = {
      var i = 0
      while (i < p.length) {
        m(i) = beta1 * m(i) + (1 - beta1) * g(i)
        v(i) = beta2 * v(i) + (1 - beta2) * g(i) * g(i)
        p(i) -= lr * (m(i) / bc1) / (math.sqrt(v(i) / bc2) + adamEps)
        i += 1
      }
    }
    var j = 0
    while (j < hidden) { upd(w1(j), gW1(j), mW1(j), vW1(j)); j += 1 }
    upd(b1, gB1, mB1, vB1)
    var k = 0
    while (k < outDim) { upd(w2(k), gW2(k), mW2(k), vW2(k)); k += 1 }
    upd(b2, gB2, mB2, vB2)
  }

  /** Copy weights from another network (target-network sync). */
  def copyFrom(o: MLP): Unit = {
    require(o.inDim == inDim && o.hidden == hidden && o.outDim == outDim)
    var j = 0
    while (j < hidden) { Array.copy(o.w1(j), 0, w1(j), 0, inDim); j += 1 }
    Array.copy(o.b1, 0, b1, 0, hidden)
    var k = 0
    while (k < outDim) { Array.copy(o.w2(k), 0, w2(k), 0, hidden); k += 1 }
    Array.copy(o.b2, 0, b2, 0, outDim)
  }

  def snapshot: NetWeights =
    NetWeights(inDim, hidden, outDim, w1.map(_.clone()), b1.clone(), w2.map(_.clone()), b2.clone())
}

object MLP {
  /** Rebuild a network from a weight snapshot (executor-side inference). */
  def fromWeights(w: NetWeights): MLP = {
    val n = new MLP(w.inDim, w.hidden, w.outDim)
    var j = 0
    while (j < w.hidden) { Array.copy(w.w1(j), 0, n.w1(j), 0, w.inDim); j += 1 }
    Array.copy(w.b1, 0, n.b1, 0, w.hidden)
    var k = 0
    while (k < w.outDim) { Array.copy(w.w2(k), 0, n.w2(k), 0, w.hidden); k += 1 }
    Array.copy(w.b2, 0, n.b2, 0, w.outDim)
    n
  }
}
