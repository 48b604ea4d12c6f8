package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A time-stamped location sample. `t` is in seconds from an arbitrary epoch;
  * `x`/`y` are planar metres (all generators emit a local projected frame, so
  * Euclidean distances are metres).
  */
final case class Point(x: Double, y: Double, t: Double) {
  def distTo(o: Point): Double = math.hypot(x - o.x, y - o.y)
}

/** A trajectory: ordered samples of one moving object. Points are strictly
  * increasing in time.
  */
final case class Traj(id: Long, points: Array[Point]) {
  def length: Int = points.length

  /** Sub-trajectory restricted to the time window [ts, te] (inclusive). */
  def window(ts: Double, te: Double): Traj =
    Traj(id, points.filter(p => p.t >= ts && p.t <= te))

  /** Linear interpolation of the position at time `t`; None outside the span. */
  def at(t: Double): Option[Point] = {
    if (points.isEmpty || t < points.head.t || t > points.last.t) None
    else {
      // binary search for the segment containing t
      var lo = 0; var hi = points.length - 1
      while (hi - lo > 1) {
        val mid = (lo + hi) >>> 1
        if (points(mid).t <= t) lo = mid else hi = mid
      }
      val a = points(lo); val b = points(math.min(hi, points.length - 1))
      if (b.t == a.t) Some(a)
      else {
        val u = (t - a.t) / (b.t - a.t)
        Some(Point(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y), t))
      }
    }
  }
}

/** Flat row form used for the Spark relation of a trajectory database. */
final case class PointRow(traj_id: Long, idx: Int, x: Double, y: Double, t: Double)

/** A simplified database: for each trajectory, the sorted indices of kept
  * points. Always contains the first and last index of every trajectory.
  */
final case class SimpleDB(kept: Map[Long, Array[Int]]) {
  def totalPoints: Int = kept.valuesIterator.map(_.length).sum

  /** Materialise the simplified trajectories given the original database. */
  def materialise(db: Array[Traj]): Array[Traj] =
    db.map(t => Traj(t.id, kept.getOrElse(t.id, Model.endpoints(t.length)).map(t.points)))
}

/** Conversions between the in-memory database (Array[Traj], used by the
  * sequential simplification algorithms and the RL training loop) and the
  * Spark relation (traj_id, idx, x, y, t) used for query processing.
  */
object Model {

  /** The relation rows of one trajectory: `idx` is the position in `tr`. */
  def rows(tr: Traj): Iterator[PointRow] =
    tr.points.iterator.zipWithIndex.map { case (p, i) => PointRow(tr.id, i, p.x, p.y, p.t) }

  /** In-memory trajectories -> Spark DataFrame with schema (traj_id, idx, x, y, t). */
  def toDF(spark: SparkSession, db: Seq[Traj]): DataFrame = {
    import spark.implicits._
    spark.createDataset(db.flatMap(rows)).toDF()
  }

  /** The one Spark path of both Spark simplifiers: groups the relation's rows
    * by `groupOf(traj_id)` in one shuffle, builds each group's trajectories in
    * ascending id order (points in `idx` order, which need not be 0..n-1),
    * calls `simplify(group, trajectories)`, and writes back the input rows at
    * the kept positions unchanged, so every output row is a row of `points`.
    * A group fails, naming the `traj_id`, on a non-finite x, y or t, on a
    * repeated `(traj_id, idx)`, and on a `t` that does not strictly increase
    * with `idx`.
    */
  def simplifyGroups(points: DataFrame, groupOf: Long => Long)(
      simplify: (Long, Array[Traj]) => SimpleDB): DataFrame = {
    val spark = points.sparkSession
    import spark.implicits._
    points.select("traj_id", "idx", "x", "y", "t")
      .as[PointRow]
      .groupByKey(r => groupOf(r.traj_id))
      .flatMapGroups { (g, it) =>
        // one run of rows per trajectory, in ascending (traj_id, idx) order
        val runs = it.toArray.groupBy(_.traj_id).toArray.sortBy(_._1).map(_._2.sortBy(_.idx))
        runs.foreach(checkRun)
        val sdb = simplify(g, runs.map(run => Traj(run(0).traj_id, run.map(r => Point(r.x, r.y, r.t)))))
        runs.iterator.flatMap(run => sdb.kept(run(0).traj_id).iterator.map(run(_)))
      }
      .toDF()
  }

  /** Rejects a trajectory's rows, sorted by `idx`, that are not a valid `Traj`. */
  private def checkRun(run: Array[PointRow]): Unit =
    for (j <- run.indices) {
      val r = run(j)
      def fail(why: String) = throw new IllegalArgumentException(s"trajectory ${r.traj_id}: $why")
      if (!(r.x.isFinite && r.y.isFinite && r.t.isFinite))
        fail(s"idx ${r.idx} has a non-finite x, y or t (${r.x}, ${r.y}, ${r.t})")
      if (j > 0 && r.idx == run(j - 1).idx) fail(s"idx ${r.idx} repeated")
      if (j > 0 && !(r.t > run(j - 1).t))
        fail(s"t does not increase at idx ${r.idx} (${run(j - 1).t} then ${r.t})")
    }

  /** Bounding box + time span of a database. */
  def bounds(db: Array[Traj]): (Double, Double, Double, Double, Double, Double) = {
    var xmin = Double.MaxValue; var xmax = Double.MinValue
    var ymin = Double.MaxValue; var ymax = Double.MinValue
    var tmin = Double.MaxValue; var tmax = Double.MinValue
    var ti = 0
    while (ti < db.length) {
      val pts = db(ti).points
      var i = 0
      while (i < pts.length) {
        val p = pts(i)
        if (p.x < xmin) xmin = p.x; if (p.x > xmax) xmax = p.x
        if (p.y < ymin) ymin = p.y; if (p.y > ymax) ymax = p.y
        if (p.t < tmin) tmin = p.t; if (p.t > tmax) tmax = p.t
        i += 1
      }
      ti += 1
    }
    (xmin, xmax, ymin, ymax, tmin, tmax)
  }

  /** Indices of the first and last point of a trajectory of `len` points,
    * without repeating index 0 when there is only one; none when it is empty.
    */
  def endpoints(len: Int): Array[Int] = if (len <= 1) Array.range(0, len) else Array(0, len - 1)

  /** Total number of points in a database. */
  def totalPoints(db: Array[Traj]): Long = db.map(_.length.toLong).sum
}
