package repro.queries

/** F1-score quality measures (Eq. 3): results on the original database are
  * ground truth; results on the simplified database are scored against them.
  */
object Quality {

  /** Set F1 of `rs` (simplified result) against `ro` (original result). */
  def f1[A](ro: Set[A], rs: Set[A]): Double = f1(ro.intersect(rs).size, rs.size, ro.size)

  /** F1 of a result of `resultSize` items, `matched` of them in a ground
    * truth of `truthSize`. Both empty -> perfect (1.0); one empty or no
    * match -> 0.0.
    */
  def f1(matched: Int, resultSize: Int, truthSize: Int): Double = {
    if (truthSize == 0 && resultSize == 0) return 1.0
    if (truthSize == 0 || resultSize == 0 || matched == 0) return 0.0
    val p = matched.toDouble / resultSize
    val r = matched.toDouble / truthSize
    2 * p * r / (p + r)
  }

  /** kNN F1 = overlap / k (precision = recall for fixed k). */
  def knnF1(ro: Seq[Long], rs: Seq[Long]): Double = {
    require(ro.size == rs.size && ro.nonEmpty, "kNN results must both have k items")
    ro.toSet.intersect(rs.toSet).size.toDouble / ro.size
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def stddev(xs: Seq[Double]): Double = {
    if (xs.size <= 1) return 0.0
    val m = mean(xs)
    math.sqrt(xs.map(x => (x - m) * (x - m)).sum / (xs.size - 1))
  }
}
