package repro.core

import org.apache.spark.sql.DataFrame

/** Test conveniences over `Model`. */
object ModelTestOps {

  /** Trivial simplification: first+last point of every trajectory. */
  def firstLast(db: Array[Traj]): SimpleDB = SimpleDB(db.map(t => t.id -> Model.endpoints(t.length)).toMap)

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
}
