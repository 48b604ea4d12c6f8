package repro.rl

import org.scalatest.funsuite.AnyFunSuite

/** Differential tests of the fdlibm port against `StrictMath`, which the JDK
  * specifies as fdlibm's results: every comparison is on raw bits, so a sign
  * of zero, a NaN payload or one ulp counts as a difference.
  */
class FdLibmSpec extends AnyFunSuite {

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)
  private def fromBits(b: Long): Double = java.lang.Double.longBitsToDouble(b)
  /** The double whose high word is `h` and low word 0. */
  private def highWord(h: Int): Double = fromBits(h.toLong << 32)

  /** Inputs on which a function differs from its reference, at most 5. */
  private def mismatches(f: Double => Double, ref: Double => Double,
                         xs: Iterator[Double]): Seq[String] =
    xs.filter(x => bits(f(x)) != bits(ref(x))).take(5).map { x =>
      s"x=$x (bits ${bits(x).toHexString}): port ${f(x)} (${bits(f(x)).toHexString})," +
        s" StrictMath ${ref(x)} (${bits(ref(x)).toHexString})"
    }.toSeq

  private def assertTanh(xs: Iterable[Double]): Unit = {
    val bad = mismatches(FdLibm.tanh, StrictMath.tanh, xs.iterator.flatMap(x => Iterator(x, -x)))
    assert(bad.isEmpty, bad.mkString("\n"))
  }
  private def assertExpm1(xs: Iterable[Double]): Unit = {
    val bad = mismatches(FdLibm.expm1, StrictMath.expm1, xs.iterator.flatMap(x => Iterator(x, -x)))
    assert(bad.isEmpty, bad.mkString("\n"))
  }

  /** `x` and its 4 neighbours on each side. */
  private def around(x: Double): Seq[Double] =
    Iterator.iterate(x)(math.nextDown).slice(1, 5).toSeq ++
      Iterator.iterate(x)(math.nextUp).take(5).toSeq

  private val specials: Seq[Double] = Seq(
    0.0, Double.PositiveInfinity, Double.NaN,
    fromBits(0x7ff0000000000001L), fromBits(0x7ff8000000000123L), fromBits(0x7fffffffffffffffL),
    Double.MinPositiveValue, fromBits(0x000fffffffffffffL), fromBits(0x0000000100000000L),
    fromBits(0x0008000000000000L), java.lang.Double.MIN_NORMAL, Double.MaxValue,
    1.0, 0.5, 2.0, 1e-300, 1e300)

  test("tanh and expm1 match StrictMath on zeros, infinities, NaNs, subnormals and extremes") {
    assertTanh(specials)
    assertExpm1(specials)
    // the sign of zero survives
    assert(bits(FdLibm.tanh(-0.0)) === bits(-0.0))
    assert(bits(FdLibm.expm1(-0.0)) === bits(-0.0))
  }

  test("tanh matches StrictMath around its 2^-55, 1 and 22 branch edges") {
    // tanh branches on the high word of |x|: 0x3c800000 (2^-55),
    // 0x3ff00000 (1) and 0x40360000 (22)
    val edges = Seq(0x3c800000, 0x3ff00000, 0x40360000).map(highWord)
    assert(edges === Seq(math.pow(2, -55), 1.0, 22.0))
    assertTanh(edges.flatMap(around))
  }

  test("expm1 matches StrictMath around its 2^-54, 0.5·ln2, 1.5·ln2, 56·ln2 and overflow edges") {
    // expm1 branches on the high word of |x|: 0x3c900000 (2^-54),
    // 0x3fd62e42 (0.5·ln2), 0x3FF0A2B2 (1.5·ln2), 0x4043687A (56·ln2) and
    // 0x40862E42 (709.78); o_threshold is the last finite result
    val hiEdges = Seq(0x3c900000, 0x3fd62e42, 0x3FF0A2B2, 0x4043687A, 0x40862E42, 0x7ff00000)
    val edges = hiEdges.map(highWord) ++ hiEdges.map(h => highWord(h + 1)) ++
      Seq(0.5 * math.log(2), 1.5 * math.log(2), 56 * math.log(2), 7.09782712893383973096e+02)
    assertExpm1(edges.flatMap(around))
    // tanh reaches expm1 with ±2|x|: the same edges, halved
    assertTanh(edges.map(_ / 2).flatMap(around))
  }

  test("expm1 matches StrictMath on every reduction k, through the k<20, k>=20 and k>56 paths") {
    // k = trunc(x/ln2 ± 0.5) changes at (k ± 0.5)·ln2; sweep each k's range
    // and both of its ends, from the k<=-2 path through k = ±1 to k > 56
    val ln2 = math.log(2)
    val xs = (-60 to 62).flatMap { k =>
      val a = (k - 0.5) * ln2
      around(a) ++ (0 until 64).map(i => a + ln2 * i / 64)
    }
    assert(xs.exists(x => x / ln2 > 56.5) && xs.exists(x => x / ln2 < -2))
    assertExpm1(xs)
    assertTanh(xs.map(_ / 2))
  }

  test("tanh and expm1 match StrictMath on 3M random bit patterns") {
    val rng = new java.util.Random(20240314L)
    // 2M patterns over every bit: mostly huge or tiny magnitudes
    val anyBits = Iterator.fill(2000000)(fromBits(rng.nextLong()))
    // 1M with a biased exponent in [0x3c0, 0x40a) (2^-63 .. 2^11), where
    // the polynomial and reduction paths of both functions run
    val midBits = Iterator.fill(1000000) {
      val e = 0x3c0L + rng.nextInt(0x4a)
      fromBits((rng.nextLong() & 0x800fffffffffffffL) | (e << 52))
    }
    val all = (anyBits ++ midBits).toArray
    val badTanh = mismatches(FdLibm.tanh, StrictMath.tanh, all.iterator)
    assert(badTanh.isEmpty, badTanh.mkString("\n"))
    val badExpm1 = mismatches(FdLibm.expm1, StrictMath.expm1, all.iterator)
    assert(badExpm1.isEmpty, badExpm1.mkString("\n"))
  }

  test("tanh matches StrictMath on sweeps of [-50, 50] and [-3, 3] and on tiny Gaussians") {
    val rng = new java.util.Random(7L)
    val wide = (0 to 200000).map(i => -50.0 + 100.0 * i / 200000)
    val narrow = (0 to 200000).map(i => -3.0 + 6.0 * i / 200000)
    val tiny = Seq.fill(100000)(rng.nextGaussian() * 1e-6)
    assertTanh(wide ++ narrow ++ tiny)
  }
}
