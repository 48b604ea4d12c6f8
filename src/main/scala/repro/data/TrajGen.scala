package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Model, Point, Traj}

/** Synthetic trajectory generators standing in for the paper's four real GPS
  * datasets (Geolife, T-Drive, Chengdu, OSM), which are not available in the
  * sealed image. Each profile is a correlated random walk whose parameters are
  * matched to the dataset's Table I statistics: relative trajectory count,
  * points per trajectory, sampling period, and mean segment length, with
  * hotspot-clustered start locations so data skew (which drives both the octree
  * and the query workloads) is present.
  *
  * Determinism: trajectory `i` of a profile is a pure function of
  * `(profile, seed, i)`, so Spark generation and driver-side generation agree.
  */
object TrajGen {

  /** Generation profile. Lengths in metres, times in seconds. */
  final case class Profile(
      name: String,
      nTrajs: Int,          // trajectories at scale 1.0
      avgLen: Int,          // mean points per trajectory
      lenJitter: Double,    // relative stddev of trajectory length
      samplingSec: Double,  // mean sampling period
      samplingJitter: Double, // relative jitter of sampling period
      stepMeters: Double,   // mean segment length (=> speed = step/sampling)
      areaMeters: Double,   // side of the square spatial domain
      nHotspots: Int,       // number of start-location clusters
      hotspotSigma: Double, // cluster spread in metres
      spanSec: Double,      // temporal extent of the database
      turnSigma: Double     // heading change stddev per step (radians)
  )

  /** Geolife-like: long, densely sampled (1–5 s) walking/vehicle trips, short
    * steps (~10 m), strong hotspot clustering (paper: 17,621 trajs, 1,412
    * pts/traj, 9.96 m mean segment).
    */
  val geolife: Profile = Profile("geolife", 500, 280, 0.5, 3.0, 0.4, 10.0,
    40000.0, 5, 2500.0, 7 * 86400.0, 0.35)

  /** T-Drive-like: taxis, sparse sampling (177 s), long steps (~623 m). */
  val tdrive: Profile = Profile("tdrive", 300, 340, 0.4, 177.0, 0.2, 623.0,
    60000.0, 8, 6000.0, 7 * 86400.0, 0.5)

  /** Chengdu-like: many short ride trips (178 pts), dense sampling (2–4 s),
    * 25 m steps.
    */
  val chengdu: Profile = Profile("chengdu", 1800, 120, 0.3, 3.0, 0.3, 25.0,
    30000.0, 6, 3000.0, 7 * 86400.0, 0.3)

  /** OSM-like: community traces, very long (5,675 pts), 53.5 s sampling,
    * 180 m steps, wide area. Used for scalability sweeps (scale nTrajs up).
    */
  val osm: Profile = Profile("osm", 900, 450, 0.6, 53.5, 0.5, 180.0,
    100000.0, 12, 8000.0, 7 * 86400.0, 0.45)

  val profiles: Map[String, Profile] =
    Seq(geolife, tdrive, chengdu, osm).map(p => p.name -> p).toMap

  /** Deterministically generate trajectory `id` of `profile`. */
  def genTraj(profile: Profile, seed: Long, id: Long): Traj = {
    val rng = new java.util.Random(mix(seed, profile.name.hashCode.toLong, id))
    val hs = rng.nextInt(profile.nHotspots)
    // Hotspot centres are themselves deterministic in (profile, seed).
    val hsRng = new java.util.Random(mix(seed, profile.name.hashCode.toLong, -1L - hs))
    val cx = (0.15 + 0.7 * hsRng.nextDouble()) * profile.areaMeters
    val cy = (0.15 + 0.7 * hsRng.nextDouble()) * profile.areaMeters

    val n = math.max(8,
      (profile.avgLen * math.exp(profile.lenJitter * rng.nextGaussian() -
        profile.lenJitter * profile.lenJitter / 2)).toInt)
    val pts = new Array[Point](n)
    var x = cx + profile.hotspotSigma * rng.nextGaussian()
    var y = cy + profile.hotspotSigma * rng.nextGaussian()
    var t = rng.nextDouble() * math.max(1.0, profile.spanSec - n * profile.samplingSec)
    var heading = rng.nextDouble() * 2 * math.Pi
    var i = 0
    while (i < n) {
      pts(i) = Point(clamp(x, 0, profile.areaMeters), clamp(y, 0, profile.areaMeters), t)
      heading += profile.turnSigma * rng.nextGaussian()
      // occasional stops (zero-length steps) mimic idling vehicles — exactly the
      // redundancy that simplification should exploit.
      val step =
        if (rng.nextDouble() < 0.08) 0.0
        else profile.stepMeters * (0.3 + 1.4 * rng.nextDouble())
      x += step * math.cos(heading)
      y += step * math.sin(heading)
      t += profile.samplingSec * (1.0 + profile.samplingJitter * (2 * rng.nextDouble() - 1))
      i += 1
    }
    Traj(id, pts)
  }

  /** Generate a database of `n` trajectories on the driver (tests, training). */
  def genLocal(profile: Profile, n: Int, seed: Long = 42): Array[Traj] =
    Array.tabulate(n)(i => genTraj(profile, seed, i.toLong))

  /** Generate with Spark: one task per trajectory batch, returning the flat
    * (traj_id, idx, x, y, t) relation. Deterministic in (profile, seed).
    */
  def genDF(spark: SparkSession, profile: Profile, n: Int, seed: Long = 42): DataFrame = {
    import spark.implicits._
    spark
      .range(n)
      .as[Long]
      .mapPartitions { ids =>
        ids.flatMap(id => Model.rows(genTraj(profile, seed, id)))
      }
      .toDF()
  }

  /** Dataset statistics matching the columns of the paper's Table I, computed
    * with Spark aggregations over the points relation.
    */
  final case class Stats(
      nTrajs: Long, totalPoints: Long, avgPtsPerTraj: Double,
      avgSamplingSec: Double, avgSegmentMeters: Double)

  def stats(df: DataFrame): Stats = {
    import org.apache.spark.sql.functions._
    import df.sparkSession.implicits._
    val nTrajs = df.select("traj_id").distinct().count()
    val total = df.count()
    // per-segment stats via a self-join free lag over (traj_id, idx)
    val w = org.apache.spark.sql.expressions.Window.partitionBy("traj_id").orderBy("idx")
    val seg = df
      .withColumn("px", lag("x", 1).over(w))
      .withColumn("py", lag("y", 1).over(w))
      .withColumn("pt", lag("t", 1).over(w))
      .where($"px".isNotNull)
      .select(
        (($"t" - $"pt")) as "dt",
        sqrt(($"x" - $"px") * ($"x" - $"px") + ($"y" - $"py") * ($"y" - $"py")) as "dl")
    val row = seg.agg(avg("dt") as "adt", avg("dl") as "adl").collect()(0)
    Stats(nTrajs, total, total.toDouble / nTrajs, row.getDouble(0), row.getDouble(1))
  }

  private def clamp(v: Double, lo: Double, hi: Double): Double =
    math.max(lo, math.min(hi, v))

  private def mix(a: Long, b: Long, c: Long): Long = {
    var h = a * 0x9e3779b97f4a7c15L + b * 0xc2b2ae3d27d4eb4fL + c * 0x165667b19e3779f9L
    h ^= h >>> 32; h *= 0xff51afd7ed558ccdL; h ^= h >>> 29
    h
  }
}
