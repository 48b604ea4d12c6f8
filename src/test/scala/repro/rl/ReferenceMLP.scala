package repro.rl

/** The per-sample training kernel the batch-innermost `MLP.trainBatch` is
  * checked against: every sample's forward pass runs on its own, through
  * `hiddenInto`, and its gradients are added before the next sample's pass.
  * Only the Adam update (`MLP.adamStep`) is shared with the main kernel.
  */
object ReferenceMLP {

  /** One Adam step of `net` on a batch of (state `xs(b)`, action `as(b)`,
    * tdTarget `ys(b)`), minimising mean (Q(s)(a) - target)^2. Returns the
    * batch loss. The batch must not be empty.
    */
  def trainBatch(net: MLP, xs: Array[Array[Double]], as: Array[Int], ys: Array[Double],
                 lr: Double): Double = {
    import net.{hidden, inDim, outDim, w2, b2}
    val n = xs.length
    require(n > 0, "empty training batch")
    val gW1 = Array.ofDim[Double](hidden, inDim); val gB1 = new Array[Double](hidden)
    val gW2 = Array.ofDim[Double](outDim, hidden); val gB2 = new Array[Double](outDim)
    val hBuf = new Array[Double](hidden); val dh = new Array[Double](hidden)
    var loss = 0.0
    val bs = n.toDouble
    var b = 0
    while (b < n) {
      val x = xs(b); val a = as(b)
      val h = net.hiddenInto(x, hBuf)
      var qa = b2(a)
      var j = 0
      while (j < hidden) { qa += w2(a)(j) * h(j); j += 1 }
      val err = qa - ys(b)
      loss += err * err / bs
      val dq = 2.0 * err / bs
      // output layer grads + backprop into hidden
      j = 0
      while (j < hidden) {
        gW2(a)(j) += dq * h(j)
        dh(j) = dq * w2(a)(j) * (1 - h(j) * h(j)) // tanh'
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
    net.adamStep(gW1, gB1, gW2, gB2, lr)
    loss
  }
}
