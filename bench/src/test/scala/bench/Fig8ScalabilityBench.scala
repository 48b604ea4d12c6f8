package bench

import repro.SparkSpec
import repro.exp.Figures

/** Fig. 8 (rendered as a table) — efficiency and scalability.
  *
  *  (a) running time vs database size N at fixed ratio r (paper: OSM,
  *      0.2–1B points; repro: OSM-like, ~45k–360k points);
  *  (b) running time vs budget W at fixed N (paper: Geolife, 0.1B points).
  *
  * Shape under test: Top-Down adaptations are fastest at small W; RL4QDTS is
  * faster than the Bottom-Up adaptations (paper: by at least 2x) and sits
  * between the two families.
  */
class Fig8ScalabilityBench extends SparkSpec {

  test("Fig 8(a): running time vs database size N (fixed r = 2%)") {
    val Figures.Fig8a(table, timesByMethod, runs) = Figures.fig8a(BenchShared)
    for (Figures.Run(db, w, s) <- runs) assert(s.totalPoints <= w + db.length)
    BenchShared.record(table.print())

    // shape: every method scales superlinearly-bounded (time grows with N), and
    // RL4QDTS is faster than Bottom-Up(W) at the largest size
    val last = timesByMethod.view.mapValues(_.last).toMap
    assert(last("RL4QDTS") <= last("Bottom-Up(W,PED)") * 1.2,
      s"RL4QDTS ${last("RL4QDTS")} vs Bottom-Up(W,PED) ${last("Bottom-Up(W,PED)")}")
    for ((m, ts) <- timesByMethod) assert(ts.last >= ts.head * 0.5, s"$m times $ts")
  }

  test("Fig 8(b): running time vs budget W (fixed N)") {
    val Figures.Fig8b(table, t, runs) = Figures.fig8b(BenchShared)
    for (Figures.Run(db, w, s) <- runs) assert(s.totalPoints <= w + db.length)
    BenchShared.record(table.print())

    // shape: RL4QDTS faster than Bottom-Up adaptations at tight budgets
    // (bottom-up must drop ~99% of points; insertion-based methods touch ~1%)
    assert(t(("RL4QDTS", 0.0025)) <= t(("Bottom-Up(W,PED)", 0.0025)),
      s"RL4QDTS ${t(("RL4QDTS", 0.0025))} vs Bottom-Up(W,PED) ${t(("Bottom-Up(W,PED)", 0.0025))}")
    assert(t(("RL4QDTS", 0.0025)) <= t(("Bottom-Up(E,SED)", 0.0025)) * 1.5)
  }
}
