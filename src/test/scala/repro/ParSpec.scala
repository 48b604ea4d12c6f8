package repro

import java.util.concurrent.atomic.AtomicInteger
import org.scalatest.funsuite.AnyFunSuite

/** The contract of `Par` that its users rely on: results in task order, every
  * task run and joined before a call returns, the first failure by index
  * rethrown as thrown, the shape of `ranges` and `chunks`, and `inCaller`
  * keeping all work on the calling thread.
  */
class ParSpec extends AnyFunSuite {

  test("all returns the results in task order for 0, 1, 2 and 50 tasks") {
    for (n <- Seq(0, 1, 2, 50)) {
      // later tasks finish first, so completion order differs from task order
      val out = Par.all((0 until n).map(i => () => { Thread.sleep((n - i) % 3); i * i }))
      assert(out === (0 until n).map(i => i * i), s"n=$n")
    }
  }

  test("all runs every task when some throw, and rethrows the first failure by index as thrown") {
    val ran = new AtomicInteger
    val first = new IllegalStateException("task 2")
    val tasks = (0 until 20).map(i => () => {
      ran.incrementAndGet()
      // task 2 fails last in time; task 5 fails at once
      if (i == 2) { Thread.sleep(30); throw first }
      if (i == 5) throw new IllegalArgumentException("task 5")
      i
    })
    val e = intercept[IllegalStateException](Par.all(tasks))
    assert(e eq first)
    assert(ran.get === 20)
  }

  test("no task is still running when all returns") {
    val running = new AtomicInteger
    val done = new AtomicInteger
    def task(ms: Int, fail: Boolean): () => Unit = () => {
      running.incrementAndGet()
      try {
        Thread.sleep(ms)
        if (fail) throw new RuntimeException("fails")
      } finally { running.decrementAndGet(); done.incrementAndGet() }
    }
    Par.all((0 until 12).map(i => task(i % 4 * 5, fail = false)))
    assert(running.get === 0 && done.get === 12)
    // a failure first in index order: the slower tasks after it still finish first
    intercept[RuntimeException](Par.all(task(0, fail = true) +: (1 until 12).map(i => task(20, fail = false))))
    assert(running.get === 0 && done.get === 24)
  }

  test("ranges covers [0, n) with min(max(k, 1), n) contiguous even ranges, one empty range at n = 0") {
    for (n <- 0 to 130; k <- -1 to 12) {
      val rs = Par.ranges(n, k)((lo, hi) => (lo, hi))
      if (n == 0) assert(rs === Seq((0, 0)), s"k=$k")
      else {
        assert(rs.length === math.min(math.max(k, 1), n), s"n=$n k=$k")
        assert(rs.head._1 === 0 && rs.last._2 === n, s"n=$n k=$k")
        assert(rs.zip(rs.tail).forall { case (a, b) => a._2 == b._1 }, s"n=$n k=$k: $rs")
        val sizes = rs.map { case (lo, hi) => hi - lo }
        assert(sizes.min >= 1 && sizes.max - sizes.min <= 1, s"n=$n k=$k: $rs")
      }
    }
  }

  test("chunks is 1 below 128 rows and inside inCaller, and at most n otherwise") {
    for (n <- 0 until 128) assert(Par.chunks(n) === 1, s"n=$n")
    for (n <- Seq(128, 129, 1000, 1 << 20)) assert(Par.chunks(n) >= 1 && Par.chunks(n) <= n, s"n=$n")
    Par.inCaller {
      for (n <- Seq(0, 127, 128, 1000, 1 << 20)) assert(Par.chunks(n) === 1, s"n=$n")
      // a nested inCaller leaves the outer one in force
      Par.inCaller(())
      assert(Par.chunks(1000) === 1)
    }
    // and the outer one leaves the thread as it was
    val threads = Runtime.getRuntime.availableProcessors
    if (threads >= 2) assert(Par.chunks(1 << 20) === 4 * threads)
  }

  test("inside inCaller every task runs on the calling thread, nested calls included") {
    val caller = Thread.currentThread
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[Thread]
    def record(): Unit = seen.add(Thread.currentThread)
    val out = Par.inCaller {
      Par.all((0 until 8).map(i => () => {
        record()
        Par.all((0 until 4).map(_ => () => record()))
        Par.ranges(1000, Par.chunks(1000))((lo, hi) => { record(); hi - lo }).sum + i
      }))
    }
    assert(out === (0 until 8).map(1000 + _))
    assert(seen.size === 8 * (1 + 4 + 1))
    assert(seen.toArray.forall(_ eq caller))
  }
}
