package repro.core

import org.apache.spark.SparkException
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.scalacheck.Gen
import repro.{Oracle, PropSupport, SparkSpec}
import repro.baselines.{Baselines, BottomUp, SpanSearch, TopDown}
import repro.data.TrajGen
import repro.queries.Workload
import repro.rl.MLP
import repro.traj.ErrorMeasures

/** The Spark trajectory codec (`Model.simplifyGroups`) through both Spark
  * simplifiers, on relations whose `idx` is gapped, does not start at 0 and
  * arrives in shuffled row order: output rows are input rows, the budget
  * contract holds exactly, and bad rows fail with the trajectory's id.
  */
class SimplifyGroupsSpec extends SparkSpec with PropSupport {

  private val params = QdtsParams(startLevel = 3, maxLevel = 6, k = 2, delta = 10, leafCap = 8)
  private lazy val agents = Training.makeAgents(params, seed = 5)
  private val nQueries = 5
  private val querySizeXY = 2000.0

  /** `n` generated trajectories under distinct ids (some negative), each cut
    * to a random subset of its points, one in six to a single point. A row's
    * `idx` is its source position plus a per-trajectory offset, so it is
    * gapped and need not start at 0. Rows come in shuffled order.
    */
  private def relation(seed: Long, n: Int): Array[PointRow] = {
    val rng = new java.util.Random(seed)
    val ids = Iterator.continually(rng.nextInt(2001) - 1000L).distinct.take(n).toArray
    val rows = TrajGen.genLocal(TrajGen.chengdu, n, seed).zip(ids).flatMap { case (tr, id) =>
      val keep = 0.2 + 0.8 * rng.nextDouble()
      val len = if (rng.nextInt(6) == 0) 1 else tr.length
      val off = rng.nextInt(50)
      (0 until len).filter(i => i == 0 || rng.nextDouble() < keep).map { i =>
        val p = tr.points(i)
        PointRow(id, off + i, p.x, p.y, p.t)
      }
    }
    shuffled(rows, rng)
  }

  private def shuffled(rows: Array[PointRow], rng: java.util.Random): Array[PointRow] = {
    val l = new java.util.ArrayList[PointRow](java.util.Arrays.asList(rows: _*))
    java.util.Collections.shuffle(l, rng)
    l.toArray(Array.empty[PointRow])
  }

  private val relations: Gen[(Long, Int)] = for {
    seed <- Gen.choose(0L, 1L << 40)
    n <- Gen.choose(1, 5)
  } yield (seed, n)

  private def df(rows: Array[PointRow]): DataFrame = {
    import spark.implicits._
    rows.toSeq.toDS().repartition(3).toDF()
  }

  private def collectRows(out: DataFrame): Set[PointRow] = {
    import spark.implicits._
    out.as[PointRow].collect().toSet
  }

  /** The relation's trajectories in ascending id order, rows in `idx` order. */
  private def runs(rows: Array[PointRow]): Array[Array[PointRow]] =
    rows.groupBy(_.traj_id).toArray.sortBy(_._1).map(_._2.sortBy(_.idx))

  private def traj(run: Array[PointRow]): Traj = Traj(run(0).traj_id, run.map(r => Point(r.x, r.y, r.t)))

  /** Every output row is an input row: by `left_anti`, and by DuckDB, whose
    * join of the output with the input must give the output back.
    */
  private def assertSourceRows(out: DataFrame, in: DataFrame): Unit = {
    val cols = Seq("traj_id", "idx", "x", "y", "t")
    assert(out.join(in, cols, "left_anti").count() === 0)
    Oracle.assertEquivalent(out,
      "SELECT CAST(o.traj_id AS BIGINT) AS traj_id, CAST(o.idx AS INTEGER) AS idx, " +
        Seq("x", "y", "t").map(c => s"CAST(o.$c AS DOUBLE) AS $c").mkString(", ") +
        " FROM o JOIN i ON " + cols.map(c => s"o.$c = i.$c").mkString(" AND "),
      "o" -> out, "i" -> in)
  }

  /** Σ over groups of max(E_g, min(round(r·N_g), N_g)). */
  private def contractRows(rows: Array[PointRow], nGroups: Int, r: Double): Long =
    rows.groupBy(row => math.floorMod(row.traj_id, nGroups.toLong)).values.map { g =>
      val e = g.groupBy(_.traj_id).values.map(t => math.min(t.length, 2).toLong).sum
      math.max(e, math.min(math.round(r * g.length), g.length.toLong))
    }.sum

  private def rl(in: DataFrame, r: Double, nGroups: Int, seed: Long): DataFrame =
    RL4QDTS.simplifySpark(in, r, agents.cubeNet.snapshot, agents.pointNet.snapshot, params,
      nGroups, nQueries, querySizeXY, seed)

  test("simplifySpark on gapped, shuffled idx: source rows, exact contract") {
    forAllN3(relations, Gen.choose(1, 3), Gen.oneOf(0.05, 0.2, 0.6), 6) { case ((seed, n), nGroups, r) =>
      val rows = relation(seed, n)
      val in = df(rows).cache()
      val out = rl(in, r, nGroups, seed).cache()
      val got = collectRows(out)
      assertSourceRows(out, in)
      assert(out.count() === got.size, "repeated output rows")
      assert(got.size === contractRows(rows, nGroups, r), s"seed=$seed n=$n nGroups=$nGroups r=$r")
      for (run <- runs(rows)) {
        assert(got.contains(run.head) && got.contains(run.last), s"endpoints of ${run(0).traj_id}")
      }
      val again = df(shuffled(rows, new java.util.Random(seed + 1)))
      assert(collectRows(rl(again, r, nGroups, seed)) === got)
      in.unpersist(); out.unpersist()
    }
  }

  test("simplifySpark with one group equals driver-side simplify") {
    forAllN2(relations, Gen.oneOf(0.1, 0.3), 4) { case ((seed, n), r) =>
      val rows = relation(seed, n)
      val rs = runs(rows)
      val db = rs.map(traj)
      val (_, _, _, _, tmin, tmax) = Model.bounds(db)
      val workload = Workload.dataDist(db, nQueries, querySizeXY, math.max(tmax - tmin, 1.0), seed)
      val sdb = RL4QDTS.simplify(db, math.round(r * rows.length).toInt, workload,
        MLP.fromWeights(agents.cubeNet.snapshot), MLP.fromWeights(agents.pointNet.snapshot),
        params, seed)
      val expected = rs.flatMap(run => sdb.kept(run(0).traj_id).map(run(_))).toSet
      assert(collectRows(rl(df(rows), r, 1, seed)) === expected, s"seed=$seed n=$n r=$r")
    }
  }

  test("simplifyESpark on gapped, shuffled idx: the driver algorithm's rows") {
    val methods = Gen.oneOf(("topdown", ErrorMeasures.SED), ("bottomup", ErrorMeasures.PED),
      ("topdown", ErrorMeasures.SAD), ("spansearch", ErrorMeasures.DAD))
    forAllN3(relations, methods, Gen.oneOf(0.1, 0.3, 0.7), 8) { case ((seed, n), (method, m), r) =>
      val rows = relation(seed, n)
      val in = df(rows).cache()
      val out = Baselines.simplifyESpark(in, method, m, r).cache()
      assertSourceRows(out, in)
      val one: (Traj, Int) => Array[Int] = method match {
        case "topdown" => TopDown.simplifyOne(m, _, _)
        case "bottomup" => BottomUp.simplifyOne(m, _, _)
        case _ => SpanSearch.simplifyOne
      }
      val expected = runs(rows).flatMap { run =>
        val tr = traj(run)
        one(tr, Baselines.eBudget(r, tr)).map(run(_))
      }
      assert(out.count() === expected.length)
      assert(collectRows(out) === expected.toSet, s"seed=$seed n=$n $method ${m.name} r=$r")
      val again = df(shuffled(rows, new java.util.Random(seed + 1)))
      assert(collectRows(Baselines.simplifyESpark(again, method, m, r)) === expected.toSet)
      in.unpersist(); out.unpersist()
    }
  }

  /** Ways to break one row of a trajectory with at least two rows. */
  private val faults = Seq("NaN x", "NaN y", "NaN t", "infinite x", "repeated idx", "equal t", "decreasing t")

  private def corrupt(rows: Array[PointRow], fault: String, rng: java.util.Random): (Long, Array[PointRow]) = {
    val multi = runs(rows).filter(_.length >= 2)
    val run = multi(rng.nextInt(multi.length))
    val j = 1 + rng.nextInt(run.length - 1)
    val (prev, row) = (run(j - 1), run(j))
    val bad = fault match {
      case "NaN x" => row.copy(x = Double.NaN)
      case "NaN y" => row.copy(y = Double.NaN)
      case "NaN t" => row.copy(t = Double.NaN)
      case "infinite x" => row.copy(x = Double.PositiveInfinity)
      case "repeated idx" => row.copy(idx = prev.idx)
      case "equal t" => row.copy(t = prev.t)
      case "decreasing t" => row.copy(t = prev.t - 1)
    }
    (row.traj_id, rows.map(r => if (r eq row) bad else r))
  }

  test("bad x, y, t or idx fails both simplifiers, naming the traj_id") {
    val seen = scala.collection.mutable.ArrayBuffer.empty[String]
    forAllN(relations, 21) { case (seed, n) =>
      val rows0 = relation(seed, n)
      // each fault in turn, on relations that have a trajectory of two or more rows
      if (rows0.groupBy(_.traj_id).values.exists(_.length >= 2)) {
        val fault = faults(seen.length % faults.length)
        val (id, rows) = corrupt(rows0, fault, new java.util.Random(seed))
        val in = df(rows)
        for ((name, run) <- Seq[(String, () => Any)](
            "simplifySpark" -> (() => rl(in, 0.2, 2, seed).collect()),
            "simplifyESpark" -> (() => Baselines.simplifyESpark(in, "bottomup", ErrorMeasures.SED, 0.2).collect()))) {
          val e = intercept[SparkException](run())
          assert(e.getMessage.contains(s"trajectory $id:"), s"$name, $fault: ${e.getMessage.take(400)}")
        }
        seen += fault
      }
    }
    assert(seen.toSet === faults.toSet)
  }

  test("both Spark simplifiers shuffle the point rows once") {
    val in = Model.toDF(spark, TrajGen.genLocal(TrajGen.chengdu, 4, 3).toSeq)
    // planned without adaptive execution, whose plan hides the exchanges
    def exchanges(out: => DataFrame): Int = {
      val key = "spark.sql.adaptive.enabled"
      val was = spark.conf.get(key)
      spark.conf.set(key, "false")
      try out.queryExecution.executedPlan.collect { case e: ShuffleExchangeExec => e }.size
      finally spark.conf.set(key, was)
    }
    assert(exchanges(rl(in, 0.2, 2, 1)) === 1)
    assert(exchanges(Baselines.simplifyESpark(in, "topdown", ErrorMeasures.SED, 0.2)) === 1)
  }
}
