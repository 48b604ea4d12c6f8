package repro.queries

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}
import repro.core.Point

/** EDR tests: the bit-parallel kernel, checked against the dynamic program
  * (`edrReference`) it replaced.
  */
class EdrSpec extends SparkSpec with PropSupport {

  private def pts(xs: (Double, Double)*): Array[Point] =
    xs.zipWithIndex.map { case ((x, y), i) => Point(x, y, i) }.toArray

  test("EDR of identical sequences is 0") {
    val a = pts((0, 0), (1, 1), (2, 2))
    assert(Edr.edr(a, a, eps = 0.1) === 0.0)
  }

  test("EDR against an empty sequence is the other's length") {
    val a = pts((0, 0), (1, 1), (2, 2))
    assert(Edr.edr(a, Array.empty, 0.1) === 3.0)
    assert(Edr.edr(Array.empty, a, 0.1) === 3.0)
  }

  test("EDR of nearby sequences within eps is 0") {
    val a = pts((0, 0), (1, 1))
    val b = pts((0.05, 0.05), (1.05, 0.95))
    assert(Edr.edr(a, b, eps = 0.2) === 0.0)
  }

  test("one substitution costs 1") {
    val a = pts((0, 0), (1, 1), (2, 2))
    val b = pts((0, 0), (9, 9), (2, 2))
    assert(Edr.edr(a, b, eps = 0.1) === 1.0)
  }

  test("one deletion costs 1") {
    val a = pts((0, 0), (1, 1), (2, 2))
    val b = pts((0, 0), (2, 2))
    assert(Edr.edr(a, b, eps = 0.1) === 1.0)
  }

  test("the match window is per-coordinate (Chebyshev), as in EDR") {
    val a = pts((0, 0))
    val b = pts((0.9, 0.9)) // both |dx| and |dy| <= 1 => match at eps=1
    assert(Edr.edr(a, b, eps = 1.0) === 0.0)
    val c = pts((1.5, 0.0)) // dx > 1 => no match
    assert(Edr.edr(a, c, eps = 1.0) === 1.0)
  }

  test("EDR is symmetric") {
    val rng = new java.util.Random(5)
    val a = Array.fill(12)(Point(rng.nextDouble() * 10, rng.nextDouble() * 10, rng.nextInt(100)))
    val b = Array.fill(9)(Point(rng.nextDouble() * 10, rng.nextDouble() * 10, rng.nextInt(100)))
    assert(Edr.edr(a, b, 1.0) === Edr.edr(b, a, 1.0))
  }

  test("EDR is bounded by max length") {
    forAllN2(Gen.chooseNum(0, 10), Gen.chooseNum(0, 10), 30) { (n, m) =>
      val rng = new java.util.Random(n * 31 + m)
      val a = Array.fill(n)(Point(rng.nextDouble(), rng.nextDouble(), 0))
      val b = Array.fill(m)(Point(rng.nextDouble() + 100, rng.nextDouble(), 0))
      val d = Edr.edr(a, b, 0.001)
      assert(d >= math.abs(n - m) - 1e-9 && d <= math.max(n, m) + 1e-9)
    }
  }

  test("subsample preserves endpoints and order") {
    val a = Array.tabulate(4 * Edr.MaxLen)(i => Point(i, i, i))
    val s = Edr.subsample(a)
    assert(s.length === Edr.MaxLen)
    assert(s.head === a.head && s.last === a.last)
    assert(s.map(_.t).toSeq === s.map(_.t).toSeq.sorted)
  }

  test("subsample is identity when short enough") {
    for (n <- Seq(5, Edr.MaxLen)) {
      val a = Array.tabulate(n)(i => Point(i, i, i))
      assert(Edr.subsample(a) eq a)
    }
  }

  test("the two-row DP equals the full DP matrix") {
    def full(a: Array[Point], b: Array[Point], eps: Double): Double = {
      val d = Array.tabulate(a.length + 1, b.length + 1)((i, j) => if (i == 0) j.toDouble else if (j == 0) i.toDouble else 0.0)
      for (i <- 1 to a.length; j <- 1 to b.length) {
        val cost = if (math.abs(a(i - 1).x - b(j - 1).x) <= eps && math.abs(a(i - 1).y - b(j - 1).y) <= eps) 0.0 else 1.0
        d(i)(j) = math.min(math.min(d(i - 1)(j) + 1, d(i)(j - 1) + 1), d(i - 1)(j - 1) + cost)
      }
      d(a.length)(b.length)
    }
    forAllN2(Gen.chooseNum(0, 30), Gen.chooseNum(0, 30), 60) { (n, m) =>
      val rng = new java.util.Random(n * 131 + m)
      val a = Array.fill(n)(Point(rng.nextInt(6).toDouble, rng.nextInt(6).toDouble, 0))
      val b = Array.fill(m)(Point(rng.nextInt(6).toDouble, rng.nextInt(6).toDouble, 0))
      assert(Edr.edr(a, b, 1.0) === full(a, b, 1.0))
    }
  }

  test("maxLen caps the DP size without changing short-sequence results") {
    val a = pts((0, 0), (1, 1), (2, 2))
    val b = pts((0, 0), (9, 9), (2, 2))
    assert(Edr.edr(a, b, 0.1) === 1.0)
    // no point of one matches the other: the distance is the capped length
    val long = Array.tabulate(1000)(i => Point(i, 0, i))
    val far = Array.tabulate(900)(i => Point(i, 1e6, i))
    assert(Edr.edr(long, far, 0.1) === Edr.MaxLen.toDouble)
  }

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  /** `n` points on a 4×4 integer grid (many duplicates and matches), with
    * NaN and ±∞ coordinates mixed in at rate `special`.
    */
  private def seq(n: Int, rng: java.util.Random, special: Double = 0.05): Array[Point] = {
    def coord(): Double =
      if (rng.nextDouble() < special) rng.nextInt(3) match {
        case 0 => Double.NaN
        case 1 => Double.PositiveInfinity
        case _ => Double.NegativeInfinity
      }
      else rng.nextInt(4).toDouble
    Array.tabulate(n)(i => Point(coord(), coord(), i))
  }

  private val wordEdges = Seq(0, 1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257, 300)

  test("edr equals edrReference bit for bit on random inputs") {
    val lengths = Gen.frequency(1 -> Gen.oneOf(wordEdges), 1 -> Gen.chooseNum(0, 300))
    val epsValues = Gen.oneOf(0.0, -1.0, Double.NaN, Double.PositiveInfinity, 1.0, 2.0, 0.5)
    val cases = for {
      n <- lengths; m <- lengths; eps <- epsValues
      seed <- Gen.chooseNum(0L, Long.MaxValue)
    } yield (n, m, eps, seed)
    var multiWord, partial, special, negOrNaNEps, infEps = 0
    forAllN(cases, 500) { case (n, m, eps, seed) =>
      val rng = new java.util.Random(seed)
      val a = seq(n, rng); val b = seq(m, rng)
      val got = Edr.edr(a, b, eps)
      assert(bits(got) === bits(Edr.edrReference(a, b, eps)), s"n=$n m=$m eps=$eps seed=$seed")
      val (na, nb) = (math.min(n, Edr.MaxLen), math.min(m, Edr.MaxLen))
      if (na > 64 && nb > 0) multiWord += 1
      if (na > 64 && got < math.max(na, nb)) partial += 1
      if ((a ++ b).exists(p => !java.lang.Double.isFinite(p.x) || !java.lang.Double.isFinite(p.y))) special += 1
      if (!(eps >= 0)) negOrNaNEps += 1
      if (eps.isPosInfinity) infEps += 1
    }
    assert(multiWord > 100 && partial > 75 && special > 200 && negOrNaNEps > 60 && infEps > 30,
      s"multiWord=$multiWord partial=$partial special=$special negOrNaNEps=$negOrNaNEps infEps=$infEps")
  }

  test("edr equals edrReference for every pattern length 0-300 across the word edges") {
    val rng = new java.util.Random(63)
    var crossings = 0
    for (n <- 0 to 300; m <- Seq(0, 1, 2, 64, 129, 300); eps <- Seq(0.0, 1.0)) {
      val a = seq(n, rng, special = 0.01); val b = seq(m, rng, special = 0.01)
      for ((x, y) <- Seq((a, b), (b, a)))
        assert(bits(Edr.edr(x, y, eps)) === bits(Edr.edrReference(x, y, eps)),
          s"n=${x.length} m=${y.length} eps=$eps")
      if (wordEdges.contains(n) && n > 2 && m > 0) crossings += 1
    }
    assert(crossings === 13 * 5 * 2)
  }

  test("edr equals edrReference on 700-point inputs at every maxLen") {
    val rng = new java.util.Random(700)
    for (eps <- Seq(0.0, 1.0, 2.0)) {
      val a = seq(700, rng); val b = seq(700 - rng.nextInt(50), rng)
      for ((x, y) <- Seq((a, b), (b, a))) {
        val d = Edr.edr(x, y, eps)
        assert(bits(d) === bits(Edr.edrReference(x, y, eps)), s"eps=$eps")
        assert(d <= Edr.MaxLen)
      }
    }
  }
}
