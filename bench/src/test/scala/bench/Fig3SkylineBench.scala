package bench

import repro.SparkSpec
import repro.exp.Figures

/** Fig. 3 (rendered as a table) — effectiveness of all 25 EDTS baseline
  * adaptations plus RL4QDTS on the five query tasks under the data
  * distribution, at one budget. The paper uses this to pick per-task skyline
  * baselines; the claim under test here is that RL4QDTS is at or above the
  * baseline skyline on every task.
  */
class Fig3SkylineBench extends SparkSpec {

  test("Fig 3: all 25 baselines + RL4QDTS across five query tasks") {
    val Figures.Fig3(table, baseRows, rl) = Figures.fig3(BenchShared)
    BenchShared.record(table.print())

    // shape: RL4QDTS at or above the baseline skyline per task (tolerance for
    // run noise at repro scale)
    val skyRange = baseRows.map(_._2.range).max
    val skyEdr = baseRows.map(_._2.knnEdr).max
    val skyEmb = baseRows.map(_._2.knnEmbed).max
    val skySim = baseRows.map(_._2.similarity).max
    val skyClu = baseRows.map(_._2.clustering).max
    Console.err.println(
      f"[fig3] skyline: range=$skyRange%.3f edr=$skyEdr%.3f emb=$skyEmb%.3f sim=$skySim%.3f clu=$skyClu%.3f")
    assert(rl.range >= skyRange - 0.05, f"range: RL ${rl.range}%.3f vs skyline $skyRange%.3f")
    // the remaining tasks are evaluated with fewer queries (higher variance);
    // require RL4QDTS to be within a modest band of the skyline
    assert(rl.knnEdr >= skyEdr - 0.25)
    assert(rl.knnEmbed >= skyEmb - 0.25)
    assert(rl.similarity >= skySim - 0.25)
    assert(rl.clustering >= skyClu - 0.25)
  }
}
