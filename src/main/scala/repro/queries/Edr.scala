package repro.queries

import repro.core.Point

/** Edit Distance on Real sequences (Chen et al., SIGMOD'05) — the paper's
  * non-learning kNN dissimilarity. Two points "match" when both coordinate
  * differences are within `eps` (the paper uses a 2 km threshold).
  * O(n*m) dynamic program; inputs longer than `maxLen` are uniformly
  * subsampled first so worst-case cost stays bounded at bench scale.
  */
object Edr {

  val DefaultMaxLen = 256

  private[queries] def subsample(pts: Array[Point], maxLen: Int): Array[Point] =
    if (pts.length <= maxLen) pts
    else Array.tabulate(maxLen)(i => pts(((i.toLong * (pts.length - 1)) / (maxLen - 1)).toInt))

  def edr(a0: Array[Point], b0: Array[Point], eps: Double,
          maxLen: Int = DefaultMaxLen): Double = {
    require(maxLen >= 2, s"EDR maxLen must be at least 2 (the endpoints), got $maxLen")
    val a = subsample(a0, maxLen); val b = subsample(b0, maxLen)
    val n = a.length; val m = b.length
    if (n == 0) return m.toDouble
    if (m == 0) return n.toDouble
    var prev = Array.tabulate(m + 1)(_.toDouble)
    var cur = new Array[Double](m + 1)
    var i = 1
    while (i <= n) {
      cur(0) = i.toDouble
      var j = 1
      while (j <= m) {
        val pa = a(i - 1); val pb = b(j - 1)
        val cost = if (math.abs(pa.x - pb.x) <= eps && math.abs(pa.y - pb.y) <= eps) 0.0 else 1.0
        cur(j) = math.min(math.min(prev(j) + 1, cur(j - 1) + 1), prev(j - 1) + cost)
        j += 1
      }
      val done = cur; cur = prev; prev = done
      i += 1
    }
    prev(m)
  }
}
