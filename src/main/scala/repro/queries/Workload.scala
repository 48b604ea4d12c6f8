package repro.queries

import repro.core.{Box, Model, Traj}

/** Range-query workload generators (Section IV-A / V-A). Each query is a
  * spatio-temporal box of fixed spatial side `sizeXY` (the paper's 2 km x 2 km)
  * and temporal extent `sizeT` (the paper's 7 days), whose centre is drawn
  * from one of two distributions: the data distribution or a Gaussian over
  * the normalised domain.
  */
object Workload {

  private def boxAround(cx: Double, cy: Double, ct: Double,
                        sizeXY: Double, sizeT: Double): Box =
    Box(cx - sizeXY / 2, cx + sizeXY / 2, cy - sizeXY / 2, cy + sizeXY / 2,
        ct - sizeT / 2, ct + sizeT / 2)

  /** Centres sampled uniformly from the database points (the "data
    * distribution"). Needs a point in `db` unless `n` is 0.
    */
  def dataDist(db: Array[Traj], n: Int, sizeXY: Double, sizeT: Double,
               seed: Long): Array[Box] = {
    if (n == 0) return Array.empty
    val rng = new java.util.Random(seed)
    val flat = db.filter(_.length > 0)
    require(flat.nonEmpty, s"data-distribution workload of $n queries needs a database with points")
    Array.fill(n) {
      val tr = flat(rng.nextInt(flat.length))
      val p = tr.points(rng.nextInt(tr.length))
      boxAround(p.x, p.y, p.t, sizeXY, sizeT)
    }
  }

  /** Centres at (mu + sigma * N(0,1)) in the normalised spatial domain,
    * clamped to [0,1]; temporal centre uniform over the span (paper's
    * Gaussian workload, mu=0.5 sigma=0.25).
    */
  def gaussian(db: Array[Traj], n: Int, sizeXY: Double, sizeT: Double,
               mu: Double, sigma: Double, seed: Long): Array[Box] = {
    val (xmin, xmax, ymin, ymax, tmin, tmax) = Model.bounds(db)
    val rng = new java.util.Random(seed)
    def clamp01(v: Double) = math.max(0.0, math.min(1.0, v))
    Array.fill(n) {
      val nx = clamp01(mu + sigma * rng.nextGaussian())
      val ny = clamp01(mu + sigma * rng.nextGaussian())
      val cx = xmin + nx * (xmax - xmin)
      val cy = ymin + ny * (ymax - ymin)
      val ct = tmin + rng.nextDouble() * (tmax - tmin)
      boxAround(cx, cy, ct, sizeXY, sizeT)
    }
  }

  /** The temporal extent of a query over the whole of `db`: its t range, at least 1. */
  def fullSpan(db: Array[Traj]): Double =
    Model.bounds(db) match { case (_, _, _, _, tmin, tmax) => math.max(tmax - tmin, 1.0) }

  /** Named workload distribution, used by benches/jobs. */
  def generate(kind: String, db: Array[Traj], n: Int, sizeXY: Double, sizeT: Double,
               seed: Long): Array[Box] = kind match {
    case "data"     => dataDist(db, n, sizeXY, sizeT, seed)
    case "gaussian" => gaussian(db, n, sizeXY, sizeT, 0.5, 0.25, seed)
    case other      => throw new IllegalArgumentException(s"unknown workload $other")
  }
}
