package repro

import java.util.concurrent.ForkJoinTask
import java.util.concurrent.atomic.AtomicInteger

/** Fork/join on the common pool for work made of independent tasks. Its
  * users:
  *  - `index.Octree`: the chunked passes above its cut level and the
  *    subtrees below it;
  *  - `core.QdtsEnv`: the range ground truth in query chunks and the
  *    endpoints-only (v_s, v_t) in trajectory chunks;
  *  - `core.Training`: each database's episodes beside its validation and
  *    env-build task, and each reward window's learning steps of Agent-Cube
  *    and Agent-Point, two tasks each;
  *  - `queries.Traclus.dbscan`: its row chunks;
  *  - `exp.Experiments.Evaluator`: the five query tasks and ground truths
  *    (its octree is built as one task, through `inCaller`).
  *
  * The caller runs tasks too, and every task has finished when a call
  * returns, so no work outlives the call; the pool's daemon workers then
  * park. A call made from inside a task forks onto the same pool.
  */
object Par {

  /** Threads that can run tasks at once: the caller and the pool's workers. */
  private val threads = Runtime.getRuntime.availableProcessors

  /** Rows below which one chunk, run by the caller, is used. */
  private val minRows = 128

  /** Whether this thread is inside `inCaller`. */
  private val oneThread = new ThreadLocal[java.lang.Boolean] {
    override def initialValue(): java.lang.Boolean = false
  }

  /** Threads this thread's calls may use. */
  private def lanes: Int = if (oneThread.get) 1 else threads

  /** Chunks to split `n` rows into: 1 below `minRows` rows or with fewer than
    * 2 threads, otherwise 4 per thread (rows can be very unequal), at most
    * `n`.
    */
  def chunks(n: Int): Int = if (lanes < 2 || n < minRows) 1 else math.min(4 * lanes, n)

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
    val helpers = Seq.fill(math.min(n, lanes) - 1)(ForkJoinTask.adapt(drain).fork())
    drain.run()
    helpers.foreach(_.join())
    failed.find(_ != null).foreach(t => throw t)
    out.toIndexedSeq.asInstanceOf[IndexedSeq[A]]
  }

  /** `body(lo, hi)` over `k` contiguous ranges that split `[0, n)` evenly,
    * in range order, run as `all` runs them; at most `n` ranges, and one
    * empty range when `n` is 0.
    */
  def ranges[A](n: Int, k: Int)(body: (Int, Int) => A): IndexedSeq[A] = {
    val m = math.max(1, math.min(k, n))
    all((0 until m).map(c => () => body((c.toLong * n / m).toInt, ((c + 1).toLong * n / m).toInt)))
  }

  /** `body`, with every call it makes to `Par` on this thread behaving as on
    * one thread: one chunk, and every task run in order by the caller. For
    * work that already runs beside other tasks (the `Evaluator`'s octree),
    * and for the differential tests, which compare a parallel build against
    * this one.
    */
  private[repro] def inCaller[A](body: => A): A = {
    val was = oneThread.get
    oneThread.set(true)
    try body finally oneThread.set(was)
  }
}
