package repro.rl

import repro.SparkSpec
import repro.rl.RlTestOps._

/** Tests of the from-scratch MLP: forward pass, analytic-vs-numeric gradient
  * agreement, optimisation, and weight snapshots.
  */
class NeuralNetSpec extends SparkSpec {

  test("forward output has the right dimension") {
    val net = new MLP(3, 5, 4, seed = 1)
    assert(net.forward(Array(0.1, 0.2, 0.3)).length === 4)
  }

  test("forward rejects wrong input dimension") {
    val net = new MLP(3, 5, 4)
    intercept[IllegalArgumentException] { net.forward(Array(1.0)) }
  }

  test("forward is deterministic") {
    val net = new MLP(4, 6, 2, seed = 3)
    val x = Array(0.5, -0.2, 0.1, 0.9)
    assert(net.forward(x).toSeq === net.forward(x).toSeq)
  }

  test("same seed gives identical initial weights, different seeds differ") {
    val a = new MLP(4, 6, 2, seed = 5)
    val b = new MLP(4, 6, 2, seed = 5)
    val c = new MLP(4, 6, 2, seed = 6)
    assert(a.forward(Array(1, 2, 3, 4.0)).toSeq === b.forward(Array(1, 2, 3, 4.0)).toSeq)
    assert(a.forward(Array(1, 2, 3, 4.0)).toSeq !== c.forward(Array(1, 2, 3, 4.0)).toSeq)
  }

  test("hidden activations are tanh-bounded") {
    val net = new MLP(2, 8, 1, seed = 7)
    val h = net.hiddenOut(Array(100.0, -100.0))
    assert(h.forall(v => v >= -1.0 && v <= 1.0))
  }

  test("analytic gradient matches numeric gradient (finite differences)") {
    // check a handful of parameters via the loss of a one-sample batch
    val net = new MLP(3, 4, 2, seed = 11)
    val x = Array(0.3, -0.7, 0.5)
    val a = 1
    val target = 0.8
    def loss(): Double = { val q = net.forward(x)(a) - target; q * q }
    // numeric grads for w1(0)(0), b1(2), w2(1)(3), b2(1)
    val eps = 1e-6
    def numGrad(get: () => Double, set: Double => Unit): Double = {
      val orig = get()
      set(orig + eps); val up = loss()
      set(orig - eps); val dn = loss()
      set(orig); (up - dn) / (2 * eps)
    }
    val nW1 = numGrad(() => net.w1(0)(0), v => net.w1(0)(0) = v)
    val nB1 = numGrad(() => net.b1(2), v => net.b1(2) = v)
    val nW2 = numGrad(() => net.w2(1)(3), v => net.w2(1)(3) = v)
    val nB2 = numGrad(() => net.b2(1), v => net.b2(1) = v)

    // analytic grads (re-derived exactly as trainBatch computes them)
    val h = net.hiddenOut(x)
    val err = net.forward(x)(a) - target
    val dq = 2.0 * err
    val aW2 = dq * h(3)
    val aB2 = dq
    val dh0 = dq * net.w2(a)(0) * (1 - h(0) * h(0))
    val aW1 = dh0 * x(0)
    val dh2 = dq * net.w2(a)(2) * (1 - h(2) * h(2))
    val aB1 = dh2
    assert(math.abs(nW2 - aW2) < 1e-5, s"$nW2 vs $aW2")
    assert(math.abs(nB2 - aB2) < 1e-5)
    assert(math.abs(nW1 - aW1) < 1e-5, s"$nW1 vs $aW1")
    assert(math.abs(nB1 - aB1) < 1e-5)
  }

  test("trainBatch reduces the loss on a fixed regression target") {
    val net = new MLP(2, 10, 3, seed = 13)
    val batch = Seq(
      (Array(0.0, 1.0), 0, 1.0),
      (Array(1.0, 0.0), 1, -1.0),
      (Array(1.0, 1.0), 2, 0.5))
    val first = net.trainBatch(batch, 0.01)
    var last = first
    for (_ <- 0 until 300) last = net.trainBatch(batch, 0.01)
    assert(last < first * 0.1, s"first=$first last=$last")
  }

  test("trainBatch can overfit a small nonlinear function") {
    val net = new MLP(1, 16, 1, seed = 17)
    val data = (-10 to 10).map { i =>
      val x = i / 10.0
      (Array(x), 0, math.sin(2 * x))
    }
    var loss = 0.0
    for (_ <- 0 until 800) loss = net.trainBatch(data, 0.01)
    assert(loss < 0.01, s"loss=$loss")
  }

  test("trainBatch rejects an empty batch and leaves the weights unchanged") {
    val net = new MLP(2, 4, 2, seed = 37)
    net.trainBatch(Seq((Array(0.5, -0.5), 1, 2.0)), 0.01) // Adam momentum is now non-zero
    val before = net.snapshot
    intercept[IllegalArgumentException] { net.trainBatch(Seq.empty, 0.01) }
    val after = net.snapshot
    assert(after.w1.map(_.toSeq).toSeq === before.w1.map(_.toSeq).toSeq)
    assert(after.b1.toSeq === before.b1.toSeq)
    assert(after.w2.map(_.toSeq).toSeq === before.w2.map(_.toSeq).toSeq)
    assert(after.b2.toSeq === before.b2.toSeq)
  }

  test("trainBatch equals the per-sample reference bit for bit, at any batch size") {
    def bits(w: NetWeights): Seq[Long] =
      (w.w1.flatten ++ w.b1 ++ w.w2.flatten ++ w.b2).map(java.lang.Double.doubleToLongBits).toSeq
    val a = new MLP(4, 6, 3, seed = 41)
    val b = new MLP(4, 6, 3, seed = 41)
    val rng = new java.util.Random(43)
    // growing, shrinking and regrowing batches: the kernel's lane buffers are reused
    for ((n, step) <- Seq(1, 2, 32, 31, 33, 2, 1, 40, 33).zipWithIndex) {
      val xs = Array.fill(n, 4)(rng.nextGaussian())
      val as = Array.fill(n)(rng.nextInt(3))
      val ys = Array.fill(n)(rng.nextGaussian())
      val la = a.trainBatch(xs.indices.map(i => (xs(i), as(i), ys(i))), 0.01)
      val lb = ReferenceMLP.trainBatch(b, xs, as, ys, 0.01)
      assert(java.lang.Double.doubleToLongBits(la) === java.lang.Double.doubleToLongBits(lb), s"step $step")
      assert(bits(a.snapshot) === bits(b.snapshot), s"step $step")
    }
  }

  test("trainBatch rejects a sample of the wrong input dimension and leaves the weights unchanged") {
    val net = new MLP(2, 4, 2, seed = 47)
    net.trainBatch(Seq((Array(0.5, -0.5), 1, 2.0)), 0.01)
    val before = net.snapshot
    for (bad <- Seq(Array(1.0), Array(1.0, 2.0, 3.0))) {
      val e = intercept[IllegalArgumentException] {
        net.trainBatch(Seq((Array(0.5, -0.5), 0, 1.0), (bad, 1, 1.0)), 0.01)
      }
      assert(e.getMessage === s"requirement failed: input dim ${bad.length} != 2")
    }
    val after = net.snapshot
    assert(after.w1.map(_.toSeq).toSeq === before.w1.map(_.toSeq).toSeq)
    assert(after.b1.toSeq === before.b1.toSeq)
    assert(after.w2.map(_.toSeq).toSeq === before.w2.map(_.toSeq).toSeq)
    assert(after.b2.toSeq === before.b2.toSeq)
  }

  test("only the taken action's Q-value is regressed") {
    val net = new MLP(2, 6, 2, seed = 19)
    val x = Array(0.4, 0.6)
    val before = net.forward(x)
    // train hard on action 0 only
    for (_ <- 0 until 200) net.trainBatch(Seq((x, 0, 5.0)), 0.01)
    val after = net.forward(x)
    assert(math.abs(after(0) - 5.0) < 0.5)
    // action 1's value moves (shared hidden layer) but much less than action 0's
    assert(math.abs(after(0) - before(0)) > math.abs(after(1) - before(1)))
  }

  test("copyFrom makes the networks identical") {
    val a = new MLP(3, 5, 2, seed = 23)
    val b = new MLP(3, 5, 2, seed = 24)
    b.copyFrom(a)
    val x = Array(0.1, 0.2, 0.3)
    assert(a.forward(x).toSeq === b.forward(x).toSeq)
  }

  test("snapshot/fromWeights round-trips the forward function") {
    val a = new MLP(3, 5, 2, seed = 29)
    for (_ <- 0 until 10) a.trainBatch(Seq((Array(1.0, 2.0, 3.0), 0, 1.0)), 0.01)
    val b = MLP.fromWeights(a.snapshot)
    val x = Array(-0.5, 0.5, 2.0)
    assert(a.forward(x).toSeq === b.forward(x).toSeq)
  }

  test("snapshot is a deep copy (later training does not mutate it)") {
    val a = new MLP(2, 4, 2, seed = 31)
    val snap = a.snapshot
    val x = Array(1.0, -1.0)
    val before = MLP.fromWeights(snap).forward(x).toSeq
    for (_ <- 0 until 50) a.trainBatch(Seq((x, 0, 3.0)), 0.05)
    assert(MLP.fromWeights(snap).forward(x).toSeq === before)
  }
}
