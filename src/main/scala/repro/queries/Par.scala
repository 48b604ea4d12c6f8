package repro.queries

import java.util.concurrent.ForkJoinTask
import java.util.concurrent.atomic.AtomicInteger

/** Fork/join on the common pool for work made of independent tasks: the row
  * chunks of `Traclus.dbscan`, and the five query tasks and ground truths of
  * `Experiments.Evaluator`. The caller runs tasks too, and every task has
  * finished when a call returns, so no work outlives the call; the pool's
  * daemon workers then park.
  */
object Par {

  /** Threads that can run tasks at once: the caller and the pool's workers. */
  private val threads = Runtime.getRuntime.availableProcessors

  /** Rows below which one chunk, run by the caller, is used. */
  private val minRows = 128

  /** Chunks to split `n` rows into: 1 below `minRows` rows or with fewer than
    * 2 threads, otherwise 4 per thread (rows can be very unequal), at most
    * `n`.
    */
  def chunks(n: Int): Int = if (threads < 2 || n < minRows) 1 else math.min(4 * threads, n)

  /** The results of `tasks`, in order. With 2 or more tasks and threads, the
    * caller and up to `threads - 1` pool workers take the tasks in order
    * until none is left, so the longest tasks should come first; otherwise
    * the caller runs them in order. A task that throws does not stop the
    * others. Once all have finished, the first failing task's exception is
    * rethrown as it was thrown.
    */
  def all[A](tasks: Seq[() => A]): IndexedSeq[A] = {
    val ts = tasks.toIndexedSeq
    val n = ts.length
    val out = new Array[Any](n)
    val failed = new Array[Throwable](n)
    val next = new AtomicInteger
    val drain: Runnable = () => {
      var k = next.getAndIncrement()
      while (k < n) {
        try out(k) = ts(k)() catch { case t: Throwable => failed(k) = t }
        k = next.getAndIncrement()
      }
    }
    // join() orders the helpers' writes to `out` and `failed` before the reads below
    val helpers = Seq.fill(math.min(n, threads) - 1)(ForkJoinTask.adapt(drain).fork())
    drain.run()
    helpers.foreach(_.join())
    failed.find(_ != null).foreach(t => throw t)
    out.toIndexedSeq.asInstanceOf[IndexedSeq[A]]
  }
}
