package repro.queries

import repro.SparkSpec
import repro.core.{Model, Point, Traj}
import repro.data.TrajGen
import repro.exp.Experiments
import repro.baselines.TopDown
import repro.traj.ErrorMeasures

/** kNN query tests with EDR and the embedding similarity. */
class KnnQuerySpec extends SparkSpec {

  private def lane(id: Long, y: Double): Traj =
    Traj(id, Array.tabulate(10)(i => Point(i * 100.0, y, i * 10.0)))

  private val db = Array(lane(0, 0), lane(1, 50), lane(2, 100), lane(3, 5000), lane(4, 10000))
  private val q = lane(99, 10)

  test("kNN returns exactly k results") {
    assert(KnnQuery.knn(db, q, 0, 100, 3, KnnQuery.Embed).size === 3)
    assert(KnnQuery.knn(db, q, 0, 100, 3, KnnQuery.EDR).size === 3)
  }

  test("embedding kNN ranks by spatial proximity") {
    assert(KnnQuery.knn(db, q, 0, 100, 3, KnnQuery.Embed) === Seq(0L, 1L, 2L))
  }

  test("EDR kNN matches lanes within eps first") {
    // lanes 0..2 are within 2km in y of the query; the others are not
    val res = KnnQuery.knn(db, q, 0, 100, 3, KnnQuery.EDR)
    assert(res.toSet === Set(0L, 1L, 2L))
  }

  test("time window restricts the compared sub-trajectories") {
    // identical to lane 0 inside [0, 40], wildly different after
    val part = Traj(7, Array.tabulate(10)(i =>
      if (i <= 4) Point(i * 100.0, 0, i * 10.0) else Point(i * 100.0, 99999, i * 10.0)))
    val db2 = db :+ part
    val res = KnnQuery.knn(db2, lane(99, 0), 0, 40, 2, KnnQuery.Embed)
    assert(res.contains(7L)) // within the window it is a perfect match
  }

  test("trajectories empty in the window rank last") {
    val shifted = Traj(8, Array(Point(0, 0, 100000), Point(1, 1, 100010)))
    val db2 = Array(shifted) ++ db
    val res = KnnQuery.knn(db2, q, 0, 100, db2.length, KnnQuery.Embed)
    assert(res.last === 8L)
  }

  test("ties break deterministically by id") {
    val a = lane(10, 0); val b = lane(11, 0) // identical geometry
    val res1 = KnnQuery.knn(Array(a, b), lane(99, 0), 0, 100, 2, KnnQuery.Embed)
    val res2 = KnnQuery.knn(Array(b, a), lane(99, 0), 0, 100, 2, KnnQuery.Embed)
    assert(res1 === res2 && res1 === Seq(10L, 11L))
  }

  test("kNN on generated data is deterministic") {
    val gdb = TrajGen.genLocal(TrajGen.chengdu, 15, 3)
    val (_, _, _, _, tmin, tmax) = repro.core.Model.bounds(gdb)
    val r1 = KnnQuery.knn(gdb, gdb(0), tmin, tmax, 5, KnnQuery.EDR)
    val r2 = KnnQuery.knn(gdb, gdb(0), tmin, tmax, 5, KnnQuery.EDR)
    assert(r1 === r2)
    assert(r1.head === 0L) // the query itself is its own nearest neighbour
  }

  test("kNN F1 between original and endpoint-simplified database is in (0,1]") {
    val gdb = TrajGen.genLocal(TrajGen.chengdu, 20, 5)
    val (_, _, _, _, tmin, tmax) = repro.core.Model.bounds(gdb)
    val simp = repro.core.ModelTestOps.firstLast(gdb).materialise(gdb)
    val ro = KnnQuery.knn(gdb, gdb(3), tmin, tmax, 3, KnnQuery.Embed)
    val rs = KnnQuery.knn(simp, gdb(3), tmin, tmax, 3, KnnQuery.Embed)
    val f1 = Quality.knnF1(ro, rs)
    assert(f1 >= 0.0 && f1 <= 1.0)
  }

  /** EDR kNN as `knn` ranks it, with the dynamic-program EDR. */
  private def knnReference(db: Array[Traj], q: Traj, ts: Double, te: Double, k: Int): Seq[Long] = {
    val qw = q.window(ts, te)
    db.map { tr =>
      val w = tr.window(ts, te)
      val d = if (w.points.isEmpty || qw.points.isEmpty) Double.MaxValue
              else Edr.edrReference(qw.points, w.points, 2000.0)
      (d, tr.id)
    }.sortBy { case (d, id) => (d, id) }.take(k).map(_._2).toSeq
  }

  test("EDR kNN ranks as edrReference does on a bench DB and its 2% simplification") {
    val bench = Experiments.benchDb(nTrajs = 24)
    val w = (0.02 * Model.totalPoints(bench)).toInt
    val simp = TopDown.simplifyW(ErrorMeasures.PED, bench, w).materialise(bench)
    for (db <- Seq(bench, simp); i <- Seq(0, 5, 11, 17, 23)) {
      val q = bench(i)
      val (ts, te) = (q.points.head.t, q.points.last.t)
      for (k <- Seq(3, db.length))
        assert(KnnQuery.knn(db, q, ts, te, k, KnnQuery.EDR) === knnReference(db, q, ts, te, k),
          s"query $i k=$k on ${db.map(_.length).sum} points")
    }
  }
}
