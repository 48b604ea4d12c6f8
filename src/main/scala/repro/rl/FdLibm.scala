package repro.rl

/** Scala port of fdlibm 5.3's `s_tanh.c` and `s_expm1.c`, the algorithms
  * that `java.lang.StrictMath` is specified to reproduce bit for bit.
  *
  * On JDK 17 `StrictMath.tanh` (and so `math.tanh`) is a native call, which
  * dominates the cost of the MLP's hidden layer; this port returns the same
  * bits as plain JVM code (`FdLibmSpec` checks it against `StrictMath` on
  * special values, every branch edge and random bit patterns). It also pins
  * the nets to fdlibm's results on any JDK, where `Math.tanh` is only
  * specified to within 2.5 ulp.
  */
object FdLibm {

  @inline private def hi(x: Double): Int = (java.lang.Double.doubleToRawLongBits(x) >>> 32).toInt
  @inline private def lo(x: Double): Int = java.lang.Double.doubleToRawLongBits(x).toInt
  /** `x` with its high word replaced by `h` (C's `__HI(x) = h`). */
  @inline private def withHi(x: Double, h: Int): Double =
    java.lang.Double.longBitsToDouble(
      (h.toLong << 32) | (java.lang.Double.doubleToRawLongBits(x) & 0xffffffffL))
  /** `x` with `k` added to its exponent field (C's `__HI(x) += k << 20`). */
  @inline private def addExp(x: Double, k: Int): Double =
    java.lang.Double.longBitsToDouble(java.lang.Double.doubleToRawLongBits(x) + (k.toLong << 52))

  private final val Tiny = 1.0e-300
  private final val Huge = 1.0e+300
  private final val OThreshold = 7.09782712893383973096e+02 // 0x40862E42 FEFA39EF
  private final val Ln2Hi = 6.93147180369123816490e-01      // 0x3fe62e42 fee00000
  private final val Ln2Lo = 1.90821492927058770002e-10      // 0x3dea39ef 35793c76
  private final val InvLn2 = 1.44269504088896338700e+00     // 0x3ff71547 652b82fe
  // scaled coefficients of expm1's rational approximation on [0, 0.5·ln2]
  private final val Q1 = -3.33333333333331316428e-02 // BFA11111 111110F4
  private final val Q2 = 1.58730158725481460165e-03  // 3F5A01A0 19FE5585
  private final val Q3 = -7.93650757867487942473e-05 // BF14CE19 9EAADBB7
  private final val Q4 = 4.00821782732936239552e-06  // 3ED0CFCA 86E65239
  private final val Q5 = -2.01099218183624371326e-07 // BE8AFDB7 6E09C32D

  /** Hyperbolic tangent, bit-equal to `StrictMath.tanh`:
    * tanh(x) = −expm1(−2|x|) / (expm1(−2|x|) + 2) for |x| < 1,
    * 1 − 2 / (expm1(2|x|) + 2) for 1 ≤ |x| < 22, ±1 beyond, x itself below 2^-55.
    */
  def tanh(x: Double): Double = {
    val jx = hi(x)
    val ix = jx & 0x7fffffff
    if (ix >= 0x7ff00000) { // ±inf or NaN
      if (jx >= 0) 1.0 / x + 1.0 else 1.0 / x - 1.0
    } else {
      val z =
        if (ix < 0x40360000) { // |x| < 22
          if (ix < 0x3c800000) return x * (1.0 + x) // |x| < 2^-55
          if (ix >= 0x3ff00000) { // |x| >= 1
            val t = expm1(2.0 * math.abs(x))
            1.0 - 2.0 / (t + 2.0)
          } else {
            val t = expm1(-2.0 * math.abs(x))
            -t / (t + 2.0)
          }
        } else 1.0 - Tiny // |x| >= 22: ±1 (inexact)
      if (jx >= 0) z else -z
    }
  }

  /** exp(x) − 1, bit-equal to `StrictMath.expm1`. */
  def expm1(x0: Double): Double = {
    var x = x0
    var hx = hi(x)
    val xsb = hx & 0x80000000 // sign bit of x
    hx &= 0x7fffffff          // high word of |x|

    // huge and non-finite arguments
    if (hx >= 0x4043687A) { // |x| >= 56·ln2
      if (hx >= 0x40862E42) { // |x| >= 709.78...
        if (hx >= 0x7ff00000) {
          return if (((hx & 0xfffff) | lo(x)) != 0) x + x // NaN
          else if (xsb == 0) x else -1.0                  // exp(±inf) − 1 = {inf, −1}
        }
        if (x > OThreshold) return Huge * Huge // overflow
      }
      if (xsb != 0 && x + Tiny < 0.0) return Tiny - 1.0 // x < −56·ln2: −1 (inexact)
    }

    // argument reduction: x = k·ln2 + (hi − lo), c the rounding error of hi − lo
    var k = 0
    var c = 0.0
    if (hx > 0x3fd62e42) { // |x| > 0.5·ln2
      var hiPart = 0.0
      var loPart = 0.0
      if (hx < 0x3FF0A2B2) { // and |x| < 1.5·ln2
        if (xsb == 0) { hiPart = x - Ln2Hi; loPart = Ln2Lo; k = 1 }
        else { hiPart = x + Ln2Hi; loPart = -Ln2Lo; k = -1 }
      } else {
        k = (InvLn2 * x + (if (xsb == 0) 0.5 else -0.5)).toInt
        val t = k.toDouble
        hiPart = x - t * Ln2Hi // t·Ln2Hi is exact here
        loPart = t * Ln2Lo
      }
      x = hiPart - loPart
      c = (hiPart - x) - loPart
    } else if (hx < 0x3c900000) { // |x| < 2^-54: x itself (inexact when x != 0)
      val t = Huge + x
      return x - (t - (Huge + x))
    }

    // x is now in the primary range
    val hfx = 0.5 * x
    val hxs = x * hfx
    val r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))))
    val t = 3.0 - r1 * hfx
    var e = hxs * ((r1 - t) / (6.0 - x * t))
    if (k == 0) x - (x * e - hxs) // c is 0
    else {
      e = x * (e - c) - c
      e -= hxs
      if (k == -1) 0.5 * (x - e) - 0.5
      else if (k == 1) {
        if (x < -0.25) -2.0 * (e - (x + 0.5)) else 1.0 + 2.0 * (x - e)
      } else if (k <= -2 || k > 56) { // suppose exp(x) > 1e-300
        addExp(1.0 - (e - x), k) - 1.0
      } else if (k < 20) {
        val t1 = withHi(1.0, 0x3ff00000 - (0x200000 >> k)) // 1 − 2^-k
        addExp(t1 - (e - x), k)
      } else {
        val t2 = withHi(1.0, (0x3ff - k) << 20) // 2^-k
        addExp(x - (e + t2) + 1.0, k)
      }
    }
  }
}
