package repro.core

/** A spatio-temporal range (the query region of a range query and the region
  * of an octree cube). Bounds are inclusive.
  */
final case class Box(
    xmin: Double, xmax: Double,
    ymin: Double, ymax: Double,
    tmin: Double, tmax: Double) {

  def contains(p: Point): Boolean =
    p.x >= xmin && p.x <= xmax && p.y >= ymin && p.y <= ymax && p.t >= tmin && p.t <= tmax

  def center: Point = Point((xmin + xmax) / 2, (ymin + ymax) / 2, (tmin + tmax) / 2)

  def spatialDiag: Double = math.hypot(xmax - xmin, ymax - ymin)

  def tExtent: Double = tmax - tmin
}
