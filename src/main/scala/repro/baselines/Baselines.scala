package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{Model, SimpleDB, Traj}
import repro.traj.ErrorMeasures
import repro.traj.ErrorMeasures.{DAD, Measure}

/** Catalog of the paper's 25 EDTS baseline adaptations (Section V-A):
  * {Top-Down, Bottom-Up, RLTS+} x {SED, PED, DAD, SAD} x {E, W} plus
  * Span-Search(E, DAD). Names follow the paper: e.g. "Top-Down(E,PED)".
  */
object Baselines {

  /** A named database simplifier: (db, totalBudget) => SimpleDB. */
  final case class NamedMethod(name: String, simplify: (Array[Traj], Int) => SimpleDB)

  /** The 16 non-RLTS+ static adaptations + Span-Search = 17 methods; RLTS+
    * adaptations require trained policies, supplied via `rlts`.
    */
  def all(rlts: Map[Measure, RltsPlus]): Seq[NamedMethod] = {
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

  /** The E adaptation of a per-trajectory simplifier at total budget W:
    * `one(tr, budget)` on each trajectory alone with its E budget at r = W / N.
    */
  def perTrajectory(db: Array[Traj], totalBudget: Int)(one: (Traj, Int) => Array[Int]): SimpleDB =
    perTrajectoryAt(db, totalBudget.toDouble / Model.totalPoints(db))(one)

  /** `perTrajectory` at compression ratio `r`: the one E loop. */
  def perTrajectoryAt(db: Array[Traj], r: Double)(one: (Traj, Int) => Array[Int]): SimpleDB =
    SimpleDB(db.map(tr => tr.id -> one(tr, eBudget(r, tr))).toMap)

  /** Train one RLTS+ policy per error measure on `trainTrajs`. */
  def trainRlts(trainTrajs: Array[Traj], budgetFrac: Double, episodes: Int): Map[Measure, RltsPlus] =
    ErrorMeasures.all.map { m =>
      val r = new RltsPlus(m, 17L + m.name.hashCode)
      r.train(trainTrajs, budgetFrac, episodes)
      m -> r
    }.toMap

  /** Spark-parallel E adaptation: each trajectory of the relation is
    * simplified alone with its E budget `eBudget(r, tr)`, through
    * `Model.simplifyGroups` (one group per trajectory), whose output rows are
    * rows of `points` (it also states the input checks). Unlike RL4QDTS's
    * Spark path, the output does not depend on any partitioning. Every
    * trajectory keeps at least its endpoints, so the total can exceed r · N by
    * them. `method` is "topdown" | "bottomup" | "spansearch" (DAD only); an
    * unknown method or measure fails here, before planning. At r = W / N
    * each method keeps what the catalog's E adaptation of it keeps at W.
    */
  def simplifyESpark(points: DataFrame, method: String, m: Measure, r: Double): DataFrame = {
    require(r > 0 && r <= 1, s"compression ratio $r out of (0,1]")
    val one: (Traj, Int) => Array[Int] = method.toLowerCase match {
      case "topdown"    => TopDown.simplifyOne(m, _, _)
      case "bottomup"   => BottomUp.simplifyOne(m, _, _)
      case "spansearch" =>
        require(m == DAD, "Span-Search supports DAD only")
        SpanSearch.simplifyOne
      case other => throw new IllegalArgumentException(s"unknown method $other")
    }
    Model.simplifyGroups(points, id => id)((_, db) => perTrajectoryAt(db, r)(one))
  }
}
