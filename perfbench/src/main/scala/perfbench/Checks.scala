package perfbench

import repro.core.{SimpleDB, Traj}

/** Output invariants of a simplified database (ROADMAP aim 3). */
object Checks {

  /** Keeps at most `budget` points, keeps both endpoints of every
    * trajectory, and its kept indices are sorted, unique and in range.
    */
  def simpleDb(r: Report, what: String, db: Array[Traj], s: SimpleDB, budget: Int): Boolean = {
    val perTraj = db.forall { tr =>
      s.kept.get(tr.id).exists { k =>
        k.nonEmpty && k.head == 0 && k.last == tr.length - 1 &&
          k.indices.drop(1).forall(i => k(i - 1) < k(i))
      }
    }
    val ok1 = r.check(s"$what.budget", s.totalPoints <= budget)
    val ok2 = r.check(s"$what.endpoints_sorted_unique", perTraj && s.kept.size == db.length)
    ok1 && ok2
  }

  def sameResult(a: SimpleDB, b: SimpleDB): Boolean =
    a.kept.keySet == b.kept.keySet &&
      a.kept.forall { case (id, k) => java.util.Arrays.equals(k, b.kept(id)) }
}
