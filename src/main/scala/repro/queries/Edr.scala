package repro.queries

import repro.core.Point

/** Edit Distance on Real sequences (Chen et al., SIGMOD'05) — the paper's
  * non-learning kNN dissimilarity. Two points "match" when both coordinate
  * differences are within `eps` (the paper uses a 2 km threshold); EDR is the
  * unit-cost edit distance under that match predicate. Inputs longer than
  * `MaxLen` are uniformly subsampled first so worst-case cost stays bounded
  * at bench scale.
  *
  * The distance is computed with Myers' bit-vector algorithm (JACM 1999) in
  * Hyyrö's global-distance form: the first sequence is the pattern, one bit
  * per point, and each point of the second sequence advances the vertical
  * delta vectors `VP`/`VN` of the DP column as ⌈n/64⌉-word integers. Cost for
  * pattern length n and text length m: O(n·m) match-predicate tests to build
  * the match masks plus O(m·⌈n/64⌉) word steps, against the O(n·m) cell
  * updates of the dynamic program (`edrReference`), whose integer result it
  * reproduces exactly.
  */
object Edr {

  /** The longest sequence EDR compares; longer inputs are subsampled to it. */
  val MaxLen = 256

  private[queries] def subsample(pts: Array[Point]): Array[Point] =
    if (pts.length <= MaxLen) pts
    else Array.tabulate(MaxLen)(i => pts(((i.toLong * (pts.length - 1)) / (MaxLen - 1)).toInt))

  /** The pattern side of the kernel: a subsampled sequence as x/y columns. */
  private[queries] final class Pattern(val xs: Array[Double], val ys: Array[Double])

  private[queries] def pattern(pts: Array[Point]): Pattern = {
    val a = subsample(pts)
    val xs = new Array[Double](a.length); val ys = new Array[Double](a.length)
    var i = 0
    while (i < a.length) { xs(i) = a(i).x; ys(i) = a(i).y; i += 1 }
    new Pattern(xs, ys)
  }

  def edr(a0: Array[Point], b0: Array[Point], eps: Double): Double =
    distance(pattern(a0), b0, eps)

  /** EDR between a prepared pattern and `b0` (subsampled to `MaxLen`). */
  private[queries] def distance(p: Pattern, b0: Array[Point], eps: Double): Double = {
    val b = subsample(b0)
    val xs = p.xs; val ys = p.ys
    val n = xs.length; val m = b.length
    if (n == 0) return m.toDouble
    if (m == 0) return n.toDouble
    val words = (n + 63) >>> 6
    val last = words - 1
    val lastBit = 1L << ((n - 1) & 63)
    val vp = Array.fill(words)(-1L) // column 0 is 0, 1, …, n: every vertical delta +1
    val vn = new Array[Long](words)
    val eq = new Array[Long](words)
    var score = n
    var j = 0
    while (j < m) {
      val bx = b(j).x; val by = b(j).y
      var w = 0
      while (w < words) {
        val lo = w << 6
        var i = math.min(n, lo + 64) - 1
        var bits = 0L
        while (i >= lo) {
          val hit = math.abs(xs(i) - bx) <= eps && math.abs(ys(i) - by) <= eps
          bits = (bits << 1) | (if (hit) 1L else 0L)
          i -= 1
        }
        eq(w) = bits
        w += 1
      }
      // one text column: Xh's addition and the Ph/Mh shifts run across words;
      // the top row D[0][j] = j enters as a +1 horizontal delta below bit 0
      var addCarry = 0L; var phIn = 1L; var mhIn = 0L
      w = 0
      while (w < words) {
        val e = eq(w); val pv = vp(w); val mv = vn(w)
        val xv = e | mv
        val x = e & pv
        val sum = x + pv + addCarry
        addCarry = ((x & pv) | ((x | pv) & ~sum)) >>> 63
        val xh = (sum ^ pv) | e
        val ph = mv | ~(xh | pv)
        val mh = pv & xh
        if (w == last) {
          if ((ph & lastBit) != 0) score += 1
          else if ((mh & lastBit) != 0) score -= 1
        }
        val phs = (ph << 1) | phIn; phIn = ph >>> 63
        val mhs = (mh << 1) | mhIn; mhIn = mh >>> 63
        vp(w) = mhs | ~(xv | phs)
        vn(w) = phs & xv
        w += 1
      }
      j += 1
    }
    score.toDouble
  }

  /** The two-row O(n·m) dynamic program `edr` replaces; kept as the
    * reference its tests compare against.
    */
  private[queries] def edrReference(a0: Array[Point], b0: Array[Point], eps: Double): Double = {
    val a = subsample(a0); val b = subsample(b0)
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
