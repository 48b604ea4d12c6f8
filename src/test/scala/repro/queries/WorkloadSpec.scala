package repro.queries

import repro.SparkSpec
import repro.core.{Model, Traj}
import repro.data.TrajGen

/** Workload generator tests: sizes, determinism, distribution shape. */
class WorkloadSpec extends SparkSpec {

  private val db = TrajGen.genLocal(TrajGen.chengdu, 20, 3)

  test("dataDist produces n queries of the requested extent") {
    val qs = Workload.dataDist(db, 25, 2000, 86400, seed = 1)
    assert(qs.length === 25)
    assert(qs.forall(q => math.abs((q.xmax - q.xmin) - 2000) < 1e-9))
    assert(qs.forall(q => math.abs((q.tmax - q.tmin) - 86400) < 1e-9))
  }

  test("dataDist is deterministic in the seed") {
    val a = Workload.dataDist(db, 10, 2000, 86400, seed = 5)
    val b = Workload.dataDist(db, 10, 2000, 86400, seed = 5)
    assert(a.toSeq === b.toSeq)
    val c = Workload.dataDist(db, 10, 2000, 86400, seed = 6)
    assert(a.toSeq !== c.toSeq)
  }

  test("dataDist centres are data points, so most queries are non-empty") {
    val qs = Workload.dataDist(db, 20, 2000, 86400, seed = 7)
    val nonEmpty = qs.count(q => RangeQuery.inMemory(db, q).nonEmpty)
    assert(nonEmpty === 20) // each query's centre itself is a point
  }

  test("dataDist on a database with no points fails and names the cause") {
    for (noPoints <- Seq(Array.empty[Traj], Array(Traj(0, Array.empty), Traj(1, Array.empty)))) {
      val e = intercept[IllegalArgumentException] { Workload.dataDist(noPoints, 5, 2000, 86400, seed = 1) }
      assert(e.getMessage.contains("needs a database with points"), e.getMessage)
    }
  }

  test("dataDist of zero queries is empty, also on a database with no points") {
    assert(Workload.dataDist(db, 0, 2000, 86400, seed = 1).isEmpty)
    assert(Workload.dataDist(Array.empty, 0, 2000, 86400, seed = 1).isEmpty)
    assert(Workload.dataDist(Array(Traj(0, Array.empty)), 0, 2000, 86400, seed = 1).isEmpty)
  }

  test("gaussian centres stay within the domain") {
    val (xmin, xmax, ymin, ymax, _, _) = Model.bounds(db)
    val qs = Workload.gaussian(db, 50, 1000, 3600, mu = 0.5, sigma = 0.25, seed = 9)
    assert(qs.forall { q =>
      val cx = (q.xmin + q.xmax) / 2; val cy = (q.ymin + q.ymax) / 2
      cx >= xmin - 1e-6 && cx <= xmax + 1e-6 && cy >= ymin - 1e-6 && cy <= ymax + 1e-6
    })
  }

  test("gaussian with tiny sigma concentrates at mu") {
    val (xmin, xmax, _, _, _, _) = Model.bounds(db)
    val qs = Workload.gaussian(db, 50, 10, 10, mu = 0.5, sigma = 1e-9, seed = 11)
    val mid = xmin + 0.5 * (xmax - xmin)
    assert(qs.forall(q => math.abs((q.xmin + q.xmax) / 2 - mid) < 1.0))
  }

  test("generate dispatches by name and rejects unknown kinds") {
    assert(Workload.generate("data", db, 5, 1000, 3600, 1).length === 5)
    assert(Workload.generate("gaussian", db, 5, 1000, 3600, 1).length === 5)
    intercept[IllegalArgumentException] { Workload.generate("nope", db, 5, 1000, 3600, 1) }
  }
}
