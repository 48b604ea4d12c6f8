package repro.queries

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}
import repro.core.Point

/** EDR dynamic-program tests. */
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
    val a = Array.tabulate(100)(i => Point(i, i, i))
    val s = Edr.subsample(a, 10)
    assert(s.length === 10)
    assert(s.head === a.head && s.last === a.last)
    assert(s.map(_.t).toSeq === s.map(_.t).toSeq.sorted)
  }

  test("subsample is identity when short enough") {
    val a = Array.tabulate(5)(i => Point(i, i, i))
    assert(Edr.subsample(a, 10) eq a)
  }

  test("maxLen below 2 is rejected with a clear message") {
    val a = pts((0, 0), (1, 1), (2, 2))
    for (maxLen <- Seq(1, 0, -3)) {
      val e = intercept[IllegalArgumentException](Edr.edr(a, a, 0.1, maxLen))
      assert(e.getMessage.contains("maxLen"))
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
    assert(Edr.edr(a, b, 0.1, maxLen = 2) >= 0) // just runs
    assert(Edr.edr(a, b, 0.1, maxLen = 100) === 1.0)
  }
}
