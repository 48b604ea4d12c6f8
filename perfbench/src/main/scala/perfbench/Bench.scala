package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Command-line settings of one benchmark run. */
final case class Settings(workload: String, seed: Long, seconds: Int, trace: Boolean,
                          policy: String, detail: String, jfrDir: String, spec: String)

/** Collects the outcome of one run: the end-to-end or per-layer metrics
  * printed on the last line, the per-op records and every output check.
  * Everything added here also lands in the detail JSON file.
  */
final class Report {
  val metrics = mutable.LinkedHashMap.empty[String, Double]
  val detail = mutable.LinkedHashMap.empty[String, Any]
  val ops = mutable.ArrayBuffer.empty[Map[String, Any]]
  val checks = mutable.LinkedHashMap.empty[String, Boolean]
  var attempted = 0
  var failed = 0

  def metric(name: String, value: Double): Unit = metrics(name) = value

  def metric(kv: Map[String, Double]): Unit = metrics ++= kv

  /** Record a named check. Returns the outcome so callers can fold it into
    * the op's own pass/fail.
    */
  def check(name: String, ok: Boolean): Boolean = {
    checks(name) = checks.getOrElse(name, true) && ok
    if (!ok) Console.err.println(s"[perfbench] CHECK FAILED: $name")
    ok
  }

  def correct: Boolean = failed == 0 && checks.values.forall(identity)

  /** Run one timed op: exceptions and failed checks count as a failed op. */
  def op(body: => Boolean): Unit = {
    attempted += 1
    val ok = try body catch {
      case e: Exception =>
        Console.err.println(s"[perfbench] op failed: $e")
        e.printStackTrace()
        false
    }
    if (!ok) failed += 1
  }

  /** The declared metrics, in declared order, with their units. */
  private def printed(declared: Seq[(String, String)]) =
    mutable.LinkedHashMap(declared.map { case (n, u) => n -> Map("value" -> metrics(n), "unit" -> u) }: _*)

  def resultLine(declared: Seq[(String, String)]): String = Json.write(Map(
    "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
    "metrics" -> printed(declared)))

  def detailJson(s: Settings, declared: Seq[(String, String)]): String = Json.write(Map(
    "workload" -> s.workload, "seed" -> s.seed, "seconds" -> s.seconds, "trace" -> s.trace,
    "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
    "metrics" -> printed(declared), "checks" -> checks, "ops" -> ops, "detail" -> detail))
}

object Bench {

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Median over the ops after the first `warmup`: those warm the JIT and
    * Spark's caches, and are timed and checked but left out of the median.
    */
  def warmMedian(xs: Seq[Double], warmup: Int): Double =
    median(if (xs.length > warmup) xs.drop(warmup) else xs.takeRight(1))

  /** Set-up repeated `reps` times (inputs rebuilt from scratch each time);
    * returns the last result and the median set-up time.
    */
  def repeatedSetup[A](reps: Int)(f: => A): (A, Double, Seq[Double]) = {
    val runs = (0 until reps).map(_ => time(f))
    val ts = runs.map(_._2)
    (runs.last._1, median(ts), ts)
  }

  /** Run ops for `seconds`: at least `minOps`, then more while the next one
    * (expected to last as long as the last one) still ends in time.
    */
  def timed(seconds: Int, minOps: Int = 1)(op: Int => Unit): Unit = {
    val end = System.nanoTime() + seconds * 1000000000L
    var i = 0
    var last = 0L
    while (i < minOps || System.nanoTime() + last < end) {
      val t0 = System.nanoTime()
      op(i)
      last = System.nanoTime() - t0
      i += 1
    }
  }
}

/** Per-op JVM counters: bytes allocated by every live thread and time spent
  * in garbage collection.
  */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  final case class Sample(allocBytes: Long, gcMs: Long)

  def sample(): Sample = {
    val ids = threads.getAllThreadIds
    val alloc = threads.getThreadAllocatedBytes(ids).filter(_ > 0).sum
    Sample(alloc, gcs.map(_.getCollectionTime).filter(_ > 0).sum)
  }

  /** (allocated MB, GC seconds) between two samples. */
  def delta(a: Sample, b: Sample): (Double, Double) =
    ((b.allocBytes - a.allocBytes) / 1e6, (b.gcMs - a.gcMs) / 1e3)
}

/** Minimal JSON writer/reader over the Jackson copy that ships with Spark. */
object Json {
  private val mapper = new com.fasterxml.jackson.databind.ObjectMapper()

  private def toJava(v: Any): AnyRef = v match {
    case m: scala.collection.Map[_, _] =>
      val out = new java.util.LinkedHashMap[String, AnyRef]()
      m.foreach { case (k, x) => out.put(k.toString, toJava(x)) }
      out
    case s: Iterable[_]   => s.map(toJava).toList.asJava
    case a: Array[_]      => a.toSeq.map(toJava).asJava
    case d: Double        => java.lang.Double.valueOf(d)
    case i: Int           => java.lang.Integer.valueOf(i)
    case l: Long          => java.lang.Long.valueOf(l)
    case b: Boolean       => java.lang.Boolean.valueOf(b)
    case s: String        => s
    case null             => null
    case other            => other.toString
  }

  def write(v: Any): String = mapper.writeValueAsString(toJava(v))

  def read(text: String): com.fasterxml.jackson.databind.JsonNode = mapper.readTree(text)
}

