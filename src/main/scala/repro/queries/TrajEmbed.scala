package repro.queries

import repro.core.{Point, Traj}

/** Substitute for the paper's t2vec learned trajectory embedding (a
  * GPU-trained seq2seq model; no GPU/training data in the sealed image).
  *
  * Embedding: resample the trajectory at `L` equally spaced times over its own
  * span by linear interpolation, normalise coordinates by the database bounds,
  * and flatten to a 2L vector; dissimilarity is the L2 distance. This
  * exercises the identical code path — kNN under a fixed-dimensional
  * vector-space trajectory representation — which is all the evaluation needs
  * (the paper notes its solution is orthogonal to the similarity measure).
  */
object TrajEmbed {

  /** Resampled times per trajectory. */
  val L = 32

  /** Embed a trajectory into R^{2L}. Degenerate trajectories (0/1 point)
    * repeat their single location (or zeros when empty).
    */
  def embed(tr: Traj, xmin: Double, xspan: Double, ymin: Double, yspan: Double): Array[Double] = {
    val out = new Array[Double](2 * L)
    if (tr.points.isEmpty) return out
    val t0 = tr.points.head.t; val t1 = tr.points.last.t
    var i = 0
    while (i < L) {
      val t = if (t1 == t0) t0 else t0 + i * (t1 - t0) / (L - 1)
      val p: Point = tr.at(t).getOrElse(tr.points.head)
      out(2 * i) = (p.x - xmin) / math.max(xspan, 1e-12)
      out(2 * i + 1) = (p.y - ymin) / math.max(yspan, 1e-12)
      i += 1
    }
    out
  }

  def l2(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }
}
