package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

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

  /** In-memory trajectories -> Spark DataFrame with schema (traj_id, idx, x, y, t). */
  def toDF(spark: SparkSession, db: Seq[Traj]): DataFrame = {
    import spark.implicits._
    val rows = db.flatMap(tr => tr.points.iterator.zipWithIndex.map { case (p, i) =>
      PointRow(tr.id, i, p.x, p.y, p.t)
    })
    spark.createDataset(rows).toDF()
  }

  /** Spark relation -> in-memory trajectories (sorted by traj_id, idx).
    * Only call at repro scale (tests <= SF 0.01, benches <= SF 0.1).
    */
  def collectTrajs(df: DataFrame): Array[Traj] = {
    val rows = df.select("traj_id", "idx", "x", "y", "t").collect()
    rows
      .groupBy(_.getLong(0))
      .toArray
      .sortBy(_._1)
      .map { case (id, rs) =>
        val pts = rs.sortBy(_.getInt(1)).map(r => Point(r.getDouble(2), r.getDouble(3), r.getDouble(4)))
        Traj(id, pts)
      }
  }

  /** Distributed variant of collect: groups rows into Traj objects as a Dataset,
    * keeping the per-trajectory work on executors.
    */
  def toTrajDS(df: DataFrame): Dataset[Traj] = {
    val spark = df.sparkSession
    import spark.implicits._
    df.select("traj_id", "idx", "x", "y", "t")
      .as[PointRow]
      .groupByKey(_.traj_id)
      .mapGroups { (id, it) =>
        val pts = it.toArray.sortBy(_.idx).map(r => Point(r.x, r.y, r.t))
        Traj(id, pts)
      }
  }

  /** Simplified database (kept indices) applied to the Spark relation. */
  def simplifyDF(df: DataFrame, s: SimpleDB): DataFrame = {
    val spark = df.sparkSession
    import spark.implicits._
    val keptDF = spark
      .createDataset(s.kept.toSeq.flatMap { case (id, idxs) => idxs.map(i => (id, i)) })
      .toDF("k_traj_id", "k_idx")
    df.join(
        keptDF,
        df("traj_id") === keptDF("k_traj_id") && df("idx") === keptDF("k_idx"),
        "inner"
      )
      .select(df("traj_id"), df("idx"), df("x"), df("y"), df("t"))
  }

  /** Bounding box + time span of a database. */
  def bounds(db: Array[Traj]): (Double, Double, Double, Double, Double, Double) = {
    var xmin = Double.MaxValue; var xmax = Double.MinValue
    var ymin = Double.MaxValue; var ymax = Double.MinValue
    var tmin = Double.MaxValue; var tmax = Double.MinValue
    for (tr <- db; p <- tr.points) {
      if (p.x < xmin) xmin = p.x; if (p.x > xmax) xmax = p.x
      if (p.y < ymin) ymin = p.y; if (p.y > ymax) ymax = p.y
      if (p.t < tmin) tmin = p.t; if (p.t > tmax) tmax = p.t
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
