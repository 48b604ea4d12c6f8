package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{Model, PointRow, SimpleDB, Traj}
import repro.traj.ErrorMeasures
import repro.traj.ErrorMeasures.{DAD, Measure}

/** Catalog of the paper's 25 EDTS baseline adaptations (Section V-A):
  * {Top-Down, Bottom-Up, RLTS+} x {SED, PED, DAD, SAD} x {E, W} plus
  * Span-Search(E, DAD). Names follow the paper: e.g. "Top-Down(E,PED)".
  */
object Baselines {

  /** A named database simplifier: (db, totalBudget) => SimpleDB. */
  final case class NamedMethod(name: String, simplify: (Array[Traj], Int) => SimpleDB)

  /** All 24 non-RLTS+ static adaptations + Span-Search = 17 methods; RLTS+
    * adaptations require trained policies, supplied via `rlts`.
    */
  def all(rlts: Map[Measure, RltsPlus] = Map.empty): Seq[NamedMethod] = {
    val stat = for {
      m <- ErrorMeasures.all
      (adapt, fE, fW) <- Seq(
        ("Top-Down", TopDown.simplifyE _, TopDown.simplifyW _),
        ("Bottom-Up", BottomUp.simplifyE _, BottomUp.simplifyW _))
      (mode, f) <- Seq(("E", fE), ("W", fW))
    } yield NamedMethod(s"$adapt($mode,${m.name})", (db, w) => f(m, db, w))

    val rltsMethods = for {
      (m, r) <- rlts.toSeq.sortBy(_._1.name)
      (mode, f) <- Seq(
        ("E", (db: Array[Traj], w: Int) => r.simplifyE(db, w)),
        ("W", (db: Array[Traj], w: Int) => r.simplifyW(db, w)))
    } yield NamedMethod(s"RLTS+($mode,${m.name})", f)

    val span = NamedMethod("Span-Search(E,DAD)", (db, w) => SpanSearch.simplifyE(db, w))

    stat ++ rltsMethods :+ span
  }

  /** The E adaptation's budget of trajectory `tr` at compression ratio `r`:
    * max(2, floor(r * |T|)) (Section V-A).
    */
  def eBudget(r: Double, tr: Traj): Int = math.max(2, (r * tr.length).toInt)

  /** Every trajectory's E budget for a total budget W, with r = W / N. */
  def eBudgets(db: Array[Traj], totalBudget: Int): Array[Int] = {
    val r = totalBudget.toDouble / Model.totalPoints(db)
    db.map(eBudget(r, _))
  }

  /** The E adaptation of a per-trajectory simplifier: `one(tr, budget)` on
    * each trajectory with its E budget.
    */
  def perTrajectory(db: Array[Traj], totalBudget: Int)(one: (Traj, Int) => Array[Int]): SimpleDB =
    SimpleDB(db.zip(eBudgets(db, totalBudget)).map { case (tr, b) => tr.id -> one(tr, b) }.toMap)

  /** Train one RLTS+ policy per error measure on `trainTrajs`. */
  def trainRlts(trainTrajs: Array[Traj], budgetFrac: Double, episodes: Int = 2,
                k: Int = 3, seed: Long = 17): Map[Measure, RltsPlus] =
    ErrorMeasures.all.map { m =>
      val r = new RltsPlus(m, k, seed + m.name.hashCode)
      r.train(trainTrajs, budgetFrac, episodes)
      m -> r
    }.toMap

  /** Spark-parallel E adaptation: simplify each trajectory in parallel with
    * `Dataset.groupByKey.flatMapGroups` (per-trajectory algorithms are
    * embarrassingly parallel). `method` is "topdown" | "bottomup" | "spansearch".
    */
  def simplifyESpark(points: DataFrame, method: String, m: Measure, r: Double): DataFrame = {
    val spark = points.sparkSession
    import spark.implicits._
    require(r > 0 && r <= 1, s"compression ratio $r out of (0,1]")
    val mName = m.name
    val mth = method.toLowerCase
    Model.toTrajDS(points)
      .flatMap { tr =>
        val budget = eBudget(r, tr)
        val meas = ErrorMeasures.byName(mName)
        val kept: Array[Int] = mth match {
          case "topdown"    => TopDown.simplifyOne(meas, tr, budget)
          case "bottomup"   => BottomUp.simplifyOne(meas, tr, budget)
          case "spansearch" =>
            require(meas == DAD, "Span-Search supports DAD only")
            SpanSearch.simplifyOne(tr, budget)
          case other => throw new IllegalArgumentException(s"unknown method $other")
        }
        kept.iterator.map(i => PointRow(tr.id, i, tr.points(i).x, tr.points(i).y, tr.points(i).t))
      }
      .toDF()
  }
}
