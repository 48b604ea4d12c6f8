package repro.baselines

import scala.collection.mutable.ArrayBuffer
import repro.core.{SimpleDB, Traj}
import repro.traj.ErrorMeasures.{angle, angleDiff}

/** Span-Search baseline (Long et al., PVLDB'14 [12]) — direction-preserving
  * simplification, DAD only, per-trajectory (the W adaptation is not possible,
  * as the paper notes).
  *
  * For a direction tolerance ε, a greedy pass keeps extending the current
  * anchor while every original segment direction under it stays within ε of
  * the anchor direction (the "direction span" stays narrow). A binary search
  * over ε finds the tightest tolerance whose greedy simplification fits the
  * per-trajectory budget — the error-search strategy of the original.
  */
object SpanSearch {

  /** Direction of each original segment i -> i+1 of `tr` (`angle`), NaN
    * where the segment has none (zero length) or its direction is NaN.
    */
  private[baselines] def directions(tr: Traj): Array[Double] =
    Array.tabulate(math.max(0, tr.length - 1))(j =>
      angle(tr.points(j), tr.points(j + 1)).getOrElse(Double.NaN))

  /** Greedy direction-span pass at tolerance `tol`; returns kept indices.
    * `dirs` are `tr`'s segment directions (`directions(tr)`). The per-advance
    * direction recheck is strided once the window exceeds 256 segments (an
    * O(n·w) -> O(n·256) bound; long windows only occur on near-straight
    * stretches where the strided check is a tight approximation).
    */
  private[baselines] def greedy(tr: Traj, tol: Double, dirs: Array[Double]): Array[Int] = {
    val n = tr.length
    if (n <= 2) return Array.tabulate(n)(identity)
    val kept = ArrayBuffer(0)
    var s = 0
    var i = s + 2 // candidate anchor end: segment s..i must cover >= 2 original segments
    while (s < n - 1) {
      var end = s + 1 // furthest valid anchor end found so far
      i = s + 2
      var ok = true
      while (ok && i < n) {
        // anchor s -> i must be within tol of every original direction in [s, i)
        angle(tr.points(s), tr.points(i)) match {
          case Some(anchorDir) =>
            val w = i - s
            val stride = math.max(1, w / 256)
            var j = s
            var valid = true
            while (valid && j < i) {
              // a NaN direction (none, or NaN coordinates) never fails the check
              if (angleDiff(anchorDir, dirs(j)) > tol) valid = false
              // always include the window's last original segment in the check
              j = if (j + stride >= i && j < i - 1) i - 1 else j + stride
            }
            if (valid) { end = i; i += 1 } else ok = false
          case None =>
            // zero-length anchor: only acceptable if every covered segment is
            // also zero-length
            val allZero = (s until i).forall(j => angle(tr.points(j), tr.points(j + 1)).isEmpty)
            if (allZero) { end = i; i += 1 } else ok = false
        }
      }
      kept += end
      s = end
    }
    kept.toArray
  }

  /** Simplify one trajectory to at most `max(2, budget)` points via binary
    * search on ε. When even the loosest pass (ε = π) keeps too many points,
    * as on a trajectory that returns to an earlier point (a zero-length
    * anchor), the endpoints are returned.
    */
  def simplifyOne(tr: Traj, budget: Int): Array[Int] = {
    val n = tr.length
    if (n <= 2 || budget >= n) return Array.tabulate(n)(identity)
    val b = math.max(2, budget)
    // the 17 passes share one computation of the segment directions
    val dirs = directions(tr)
    var lo = 0.0; var hi = math.Pi
    var best = greedy(tr, hi, dirs)
    var it = 0
    while (it < 16) { // π/2^16 ≈ 5e-5 rad resolution — beyond any budget granularity
      val mid = (lo + hi) / 2
      val kept = greedy(tr, mid, dirs)
      if (kept.length <= b) { best = kept; hi = mid } else lo = mid
      it += 1
    }
    if (best.length <= b) best else Array(0, n - 1)
  }

  /** E adaptation (the only one): per-trajectory proportional budgets. */
  def simplifyE(db: Array[Traj], totalBudget: Int): SimpleDB =
    Baselines.perTrajectory(db, totalBudget)(simplifyOne)
}
