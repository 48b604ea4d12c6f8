package repro.traj

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}
import repro.core.{Point, Traj}
import repro.traj.ErrorMeasures._

/** Geometric unit tests + property checks for SED / PED / DAD / SAD. */
class ErrorMeasuresSpec extends SparkSpec with PropSupport {

  private val a = Point(0, 0, 0)
  private val b = Point(10, 0, 10)

  // --- syncPoint / SED ---

  test("syncPoint interpolates linearly in time") {
    val s = syncPoint(a, b, 5)
    assert(s.x === 5.0 && s.y === 0.0 && s.t === 5.0)
  }

  test("syncPoint with zero-duration anchor returns the start") {
    assert(syncPoint(a, Point(10, 0, 0), 0) === a)
  }

  test("SED of a point on the anchor is 0") {
    assert(sed(a, b, Point(5, 0, 5)) === 0.0)
  }

  test("SED measures the synchronised displacement") {
    assert(sed(a, b, Point(5, 3, 5)) === 3.0)
  }

  test("SED accounts for temporal misalignment, not just geometry") {
    // point lies on the line but is 'early': synchronised position is x=2
    assert(math.abs(sed(a, b, Point(5, 0, 2)) - 3.0) < 1e-12)
  }

  // --- PED ---

  test("PED of a point on the segment is 0") {
    assert(ped(a, b, Point(5, 0, 99)) === 0.0)
  }

  test("PED is the perpendicular distance for interior projections") {
    assert(ped(a, b, Point(5, 4, 0)) === 4.0)
  }

  test("PED clamps to the nearer endpoint beyond the segment") {
    assert(math.abs(ped(a, b, Point(13, 4, 0)) - 5.0) < 1e-12)
  }

  test("PED with degenerate (zero-length) anchor is distance to the point") {
    assert(ped(a, Point(0, 0, 5), Point(3, 4, 0)) === 5.0)
  }

  // --- angles / DAD ---

  test("angle of +x axis is 0, +y axis is π/2") {
    assert(angle(a, Point(1, 0, 0)).get === 0.0)
    assert(math.abs(angle(a, Point(0, 1, 0)).get - math.Pi / 2) < 1e-12)
  }

  test("angle of a zero-length segment is undefined") {
    assert(angle(a, Point(0, 0, 5)).isEmpty)
  }

  test("angleDiff is symmetric and wraps around 2π") {
    assert(math.abs(angleDiff(0.1, 2 * math.Pi - 0.1) - 0.2) < 1e-12)
    assert(angleDiff(1.0, 2.5) === angleDiff(2.5, 1.0))
  }

  test("DAD of a parallel original segment is 0") {
    assert(dad(a, b, Point(3, 1, 0), Point(4, 1, 0)) === 0.0)
  }

  test("DAD of an orthogonal original segment is π/2") {
    assert(math.abs(dad(a, b, Point(3, 0, 0), Point(3, 1, 0)) - math.Pi / 2) < 1e-12)
  }

  test("DAD with an undirected (stationary) original segment is 0") {
    assert(dad(a, b, Point(3, 1, 0), Point(3, 1, 1)) === 0.0)
  }

  // --- speed / SAD ---

  test("speed is distance over duration") {
    assert(speed(a, b) === 1.0)
  }

  test("speed of a zero-duration segment is 0") {
    assert(speed(a, Point(10, 0, 0)) === 0.0)
  }

  test("SAD compares anchor speed to original segment speed") {
    // anchor speed 1; original segment speed 2
    assert(sad(a, b, Point(0, 0, 0), Point(2, 0, 1)) === 1.0)
  }

  // --- segError / trajError ---

  private def line(n: Int): Traj =
    Traj(0, Array.tabulate(n)(i => Point(i, 0, i)))

  test("segError over a straight constant-speed run is 0 for SED/PED/DAD/SAD") {
    val tr = line(10)
    for (m <- ErrorMeasures.all)
      assert(segError(m, tr, 0, 9) === 0.0, m.name)
  }

  test("segError SED picks the worst interior point") {
    val tr = Traj(0, Array(Point(0, 0, 0), Point(1, 1, 1), Point(2, 5, 2), Point(3, 0, 3)))
    assert(segError(SED, tr, 0, 3) === 5.0)
  }

  test("segError of an adjacent pair (no interior) is 0") {
    val tr = line(5)
    for (m <- ErrorMeasures.all) assert(segError(m, tr, 2, 3) === 0.0)
  }

  test("trajError is the max over anchor segments") {
    val tr = Traj(0, Array(Point(0, 0, 0), Point(1, 2, 1), Point(2, 0, 2), Point(3, 7, 3), Point(4, 0, 4)))
    val e = trajError(SED, tr, Array(0, 2, 4))
    assert(e === 7.0)
  }

  test("trajError of the identity simplification is 0") {
    val tr = line(6)
    for (m <- ErrorMeasures.all)
      assert(trajError(m, tr, Array(0, 1, 2, 3, 4, 5)) === 0.0)
  }

  test("trajError requires endpoints") {
    val tr = line(5)
    intercept[IllegalArgumentException] { trajError(SED, tr, Array(1, 4)) }
    intercept[IllegalArgumentException] { trajError(SED, tr, Array(0, 3)) }
  }

  test("byName resolves all measures and rejects unknown ones") {
    assert(ErrorMeasures.byName("sed") === SED)
    assert(ErrorMeasures.byName("PED") === PED)
    assert(ErrorMeasures.byName("dad") === DAD)
    assert(ErrorMeasures.byName("SAD") === SAD)
    intercept[IllegalArgumentException] { ErrorMeasures.byName("XYZ") }
  }

  // --- properties ---

  private val coord = Gen.chooseNum(-1000.0, 1000.0)
  private val genPoint = for { x <- coord; y <- coord; t <- Gen.chooseNum(0.0, 1000.0) } yield Point(x, y, t)

  test("property: SED and PED are non-negative") {
    forAllN3(genPoint, genPoint, genPoint) { (p1, p2, p) =>
      assert(sed(p1, p2, p) >= 0.0)
      assert(ped(p1, p2, p) >= 0.0)
    }
  }

  test("property: PED <= distance to either endpoint") {
    forAllN3(genPoint, genPoint, genPoint) { (p1, p2, p) =>
      assert(ped(p1, p2, p) <= math.min(p.distTo(p1), p.distTo(p2)) + 1e-9)
    }
  }

  test("property: DAD within [0, π], SAD non-negative") {
    forAllN2(Gen.zip(genPoint, genPoint), Gen.zip(genPoint, genPoint)) { (s1, s2) =>
      val d = dad(s1._1, s1._2, s2._1, s2._2)
      assert(d >= 0.0 && d <= math.Pi + 1e-12)
      assert(sad(s1._1, s1._2, s2._1, s2._2) >= 0.0)
    }
  }

  test("property: segError is non-negative and zero on interior-free segments") {
    forAllN(Gen.chooseNum(5, 20), 50) { n =>
      val rng = new java.util.Random(n)
      val pts = Array.tabulate(n)(i => Point(rng.nextDouble() * 100, rng.nextDouble() * 100, i * 10.0))
      val tr = Traj(0, pts)
      val whole = segError(SED, tr, 0, n - 1)
      val mid = n / 2
      val refined = math.max(segError(SED, tr, 0, mid), segError(SED, tr, mid, n - 1))
      assert(whole >= 0 && refined >= 0)
      assert(segError(SED, tr, mid, mid + 1) === 0.0)
    }
  }
}
