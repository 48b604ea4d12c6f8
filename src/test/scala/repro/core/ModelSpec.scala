package repro.core

import repro.SparkSpec
import repro.core.ModelTestOps.firstLast

/** Tests of the trajectory data model and its Spark relation converters. */
class ModelSpec extends SparkSpec {

  private def tr(id: Long, pts: (Double, Double, Double)*): Traj =
    Traj(id, pts.map { case (x, y, t) => Point(x, y, t) }.toArray)

  private val t1 = tr(0, (0, 0, 0), (1, 0, 10), (2, 0, 20), (3, 0, 30))
  private val t2 = tr(1, (5, 5, 5), (6, 6, 15))
  private val db = Array(t1, t2)

  test("Point.distTo is Euclidean") {
    assert(Point(0, 0, 0).distTo(Point(3, 4, 99)) === 5.0)
  }

  test("Traj.length counts points") { assert(t1.length === 4) }

  test("Traj.window keeps points inside the inclusive time window") {
    assert(t1.window(10, 20).points.map(_.t).toSeq === Seq(10.0, 20.0))
  }

  test("Traj.window empty outside span") {
    assert(t1.window(100, 200).points.isEmpty)
  }

  test("Traj.at interpolates linearly") {
    val p = t1.at(15).get
    assert(math.abs(p.x - 1.5) < 1e-12 && p.t === 15.0)
  }

  test("Traj.at at exact sample returns the sample position") {
    val p = t1.at(20).get
    assert(p.x === 2.0 && p.y === 0.0)
  }

  test("Traj.at outside the span is None") {
    assert(t1.at(-1).isEmpty && t1.at(31).isEmpty)
  }

  test("Traj.at on a single-point window") {
    val single = tr(9, (1, 2, 3))
    assert(single.at(3).contains(Point(1, 2, 3)))
  }

  test("toDF emits one row per point with the documented schema") {
    val df = Model.toDF(spark, db.toSeq)
    assert(df.columns.toSeq === Seq("traj_id", "idx", "x", "y", "t"))
    assert(df.count() === 6)
  }

  test("collectTrajs is the inverse of toDF") {
    val back = ModelTestOps.collectTrajs(Model.toDF(spark, db.toSeq))
    assert(back.length === 2)
    assert(back(0).points.toSeq === t1.points.toSeq)
    assert(back(1).points.toSeq === t2.points.toSeq)
  }

  test("simplifyGroups groups trajectories in id, idx order and keeps the source rows") {
    import spark.implicits._
    // idx gapped and not from 0, rows out of order; trajectory 1 in its own group
    val rows = Seq(PointRow(0, 9, 2, 0, 20), PointRow(1, 4, 6, 6, 15), PointRow(0, 3, 0, 0, 0),
      PointRow(2, 7, 8, 8, 1), PointRow(0, 20, 3, 0, 30), PointRow(1, 2, 5, 5, 5), PointRow(0, 5, 1, 0, 10))
    val out = Model.simplifyGroups(rows.toDS().repartition(2).toDF(), id => id % 2) { (g, trs) =>
      require(trs.map(_.id).toSeq == (if (g == 0) Seq(0L, 2L) else Seq(1L)), s"group $g")
      require(trs.forall(tr => tr.points.map(_.t).toSeq == tr.points.map(_.t).sorted.toSeq))
      // keep the first and third point of trajectory 0, the last of the others
      SimpleDB(trs.map(tr => tr.id -> (if (tr.id == 0) Array(0, 2) else Array(tr.length - 1))).toMap)
    }
    assert(out.columns.toSeq === Seq("traj_id", "idx", "x", "y", "t"))
    assert(out.as[PointRow].collect().toSet ===
      Set(PointRow(0, 3, 0, 0, 0), PointRow(0, 9, 2, 0, 20), PointRow(1, 4, 6, 6, 15), PointRow(2, 7, 8, 8, 1)))
  }

  test("rows numbers a trajectory's points from 0") {
    assert(Model.rows(t2).toSeq === Seq(PointRow(1, 0, 5, 5, 5), PointRow(1, 1, 6, 6, 15)))
  }

  test("simplifyDF keeps exactly the kept indices") {
    val df = Model.toDF(spark, db.toSeq)
    val s = SimpleDB(Map(0L -> Array(0, 3), 1L -> Array(0, 1)))
    val out = ModelTestOps.simplifyDF(df, s)
    assert(out.count() === 4)
    val rows = out.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    assert(rows === Set((0L, 0), (0L, 3), (1L, 0), (1L, 1)))
  }

  test("per-trajectory point counts agree with the DuckDB oracle") {
    val df = Model.toDF(spark, db.toSeq)
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val agg = df.groupBy($"traj_id" as "tid").agg(count(lit(1)) as "n")
    repro.Oracle.assertEquivalent(
      agg,
      "SELECT traj_id AS tid, count(*) AS n FROM points GROUP BY traj_id",
      "points" -> df)
  }

  test("bounds covers all coordinates") {
    val (xmin, xmax, ymin, ymax, tmin, tmax) = Model.bounds(db)
    assert(xmin === 0.0 && xmax === 6.0 && ymin === 0.0 && ymax === 6.0)
    assert(tmin === 0.0 && tmax === 30.0)
  }

  test("firstLast keeps exactly the endpoints") {
    val s = firstLast(db)
    assert(s.kept(0L).toSeq === Seq(0, 3))
    assert(s.kept(1L).toSeq === Seq(0, 1))
    assert(s.totalPoints === 4)
  }

  test("firstLast on a single-point trajectory keeps one point") {
    val s = firstLast(Array(tr(7, (1, 1, 1))))
    assert(s.kept(7L).toSeq === Seq(0))
  }

  test("SimpleDB.materialise projects the original points") {
    val s = SimpleDB(Map(0L -> Array(0, 2, 3), 1L -> Array(0, 1)))
    val m = s.materialise(db)
    assert(m(0).points.toSeq === Seq(t1.points(0), t1.points(2), t1.points(3)))
  }

  test("SimpleDB.materialise falls back to the endpoints, once for a one-point trajectory") {
    val single = tr(7, (1, 1, 1))
    val m = SimpleDB(Map.empty).materialise(Array(t1, single))
    assert(m(0).points.toSeq === Seq(t1.points(0), t1.points(3)))
    assert(m(1).points.toSeq === Seq(single.points(0)))
  }

  test("a zero-point trajectory has no endpoints and materialises empty") {
    val empty = Traj(9, Array.empty[Point])
    assert(Model.endpoints(0).isEmpty)
    assert(firstLast(Array(t1, empty)).kept(9L).isEmpty)
    val m = SimpleDB(Map.empty).materialise(Array(t1, empty))
    assert(m(1).points.isEmpty)
    assert(firstLast(Array(t1, empty)).materialise(Array(t1, empty))(1).points.isEmpty)
  }

  test("totalPoints sums lengths") { assert(Model.totalPoints(db) === 6L) }
}
