package repro.traj

import repro.core.{Point, Traj}

/** The four anchor-segment error measures of Section III-A: SED, PED, DAD,
  * SAD. Each is defined pointwise (error of an original point `p_i` whose
  * anchor segment is `p_a..p_b` in the simplified trajectory) and lifted to
  * segment error (max over covered points, Eq. 1) and trajectory error (max
  * over segments, Eq. 2).
  */
object ErrorMeasures {

  sealed trait Measure { def name: String }
  case object SED extends Measure { val name = "SED" }
  case object PED extends Measure { val name = "PED" }
  case object DAD extends Measure { val name = "DAD" }
  case object SAD extends Measure { val name = "SAD" }

  val all: Seq[Measure] = Seq(SED, PED, DAD, SAD)
  def byName(s: String): Measure = all.find(_.name == s.toUpperCase).getOrElse(
    throw new IllegalArgumentException(s"unknown measure $s"))

  /** Synchronised point on segment a->b at time t (linear in time). */
  def syncPoint(a: Point, b: Point, t: Double): Point =
    if (b.t == a.t) a
    else {
      val u = (t - a.t) / (b.t - a.t)
      Point(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y), t)
    }

  /** Synchronised Euclidean Distance of p w.r.t. anchor segment a->b. */
  def sed(a: Point, b: Point, p: Point): Double = p.distTo(syncPoint(a, b, p.t))

  /** Perpendicular Euclidean Distance of p to the line segment a->b. */
  def ped(a: Point, b: Point, p: Point): Double = {
    val dx = b.x - a.x; val dy = b.y - a.y
    val len2 = dx * dx + dy * dy
    if (len2 == 0) p.distTo(a)
    else {
      val u = ((p.x - a.x) * dx + (p.y - a.y) * dy) / len2
      val uc = math.max(0.0, math.min(1.0, u))
      p.distTo(Point(a.x + uc * dx, a.y + uc * dy, p.t))
    }
  }

  /** Angle of a directed segment in [0, 2π). Zero-length segments have no
    * direction; callers treat them as zero error.
    */
  def angle(a: Point, b: Point): Option[Double] = {
    val dx = b.x - a.x; val dy = b.y - a.y
    if (dx == 0 && dy == 0) None
    else {
      val th = math.atan2(dy, dx)
      Some(if (th < 0) th + 2 * math.Pi else th)
    }
  }

  /** Smallest absolute angular difference, in [0, π]. */
  def angleDiff(t1: Double, t2: Double): Double = {
    val a = math.abs(t1 - t2)
    // `%` returns its dividend exactly when it is below the divisor
    val d = if (a < 2 * math.Pi) a else a % (2 * math.Pi)
    if (d > math.Pi) 2 * math.Pi - d else d
  }

  /** Direction-Aware Distance of original segment p_i->p_{i+1} w.r.t. anchor
    * a->b: the angular difference between the two directions.
    */
  def dad(a: Point, b: Point, segFrom: Point, segTo: Point): Double =
    (angle(a, b), angle(segFrom, segTo)) match {
      case (Some(t1), Some(t2)) => angleDiff(t1, t2)
      case _                    => 0.0
    }

  /** Speed on a directed segment; zero-duration segments have speed 0. */
  def speed(a: Point, b: Point): Double =
    if (b.t == a.t) 0.0 else a.distTo(b) / math.abs(b.t - a.t)

  /** Speed-Aware Distance of original segment p_i->p_{i+1} w.r.t. anchor a->b:
    * the absolute speed difference.
    */
  def sad(a: Point, b: Point, segFrom: Point, segTo: Point): Double =
    math.abs(speed(a, b) - speed(segFrom, segTo))

  /** Error of the anchor segment `(ia, ib)` of trajectory `tr` (Eq. 1): the
    * max pointwise (SED/PED) or per-original-segment (DAD/SAD) error over the
    * covered interior.
    */
  def segError(m: Measure, tr: Traj, ia: Int, ib: Int): Double = {
    require(ia <= ib, s"segment [$ia,$ib] reversed")
    if (ib - ia <= 1) return 0.0
    val a = tr.points(ia); val b = tr.points(ib)
    var worst = 0.0
    m match {
      case SED =>
        var i = ia + 1
        while (i < ib) { val e = sed(a, b, tr.points(i)); if (e > worst) worst = e; i += 1 }
      case PED =>
        var i = ia + 1
        while (i < ib) { val e = ped(a, b, tr.points(i)); if (e > worst) worst = e; i += 1 }
      case DAD =>
        var i = ia
        while (i < ib) {
          val e = dad(a, b, tr.points(i), tr.points(i + 1)); if (e > worst) worst = e; i += 1
        }
      case SAD =>
        var i = ia
        while (i < ib) {
          val e = sad(a, b, tr.points(i), tr.points(i + 1)); if (e > worst) worst = e; i += 1
        }
    }
    worst
  }

  /** Error of a simplified trajectory given the kept indices (Eq. 2). */
  def trajError(m: Measure, tr: Traj, kept: Array[Int]): Double = {
    require(kept.nonEmpty && kept.head == 0 && kept.last == tr.length - 1,
      "kept indices must include first and last point")
    var worst = 0.0
    var j = 0
    while (j < kept.length - 1) {
      val e = segError(m, tr, kept(j), kept(j + 1))
      if (e > worst) worst = e
      j += 1
    }
    worst
  }
}
