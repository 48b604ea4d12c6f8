package perfbench

import java.nio.file.{Files, Path, Paths}
import jdk.jfr.Recording
import jdk.jfr.consumer.{RecordedEvent, RecordingFile}
import scala.jdk.CollectionConverters._

/** CPU-sample attribution for calls that are one monolithic method from the
  * outside: JDK Flight Recorder for `Training.train` and the simplification
  * replay, a stack-sampling thread for `Evaluator.evaluate`.
  * Each sample goes to the first category whose frame predicate matches its
  * stack, so the shares are disjoint.
  */
object Jfr {

  /** A category: a name and a test on one frame (class name, method name). */
  final case class Category(name: String, frame: (String, String) => Boolean)

  final case class Profile(samples: Int, counts: Map[String, Int]) {
    def share(name: String): Double = counts.getOrElse(name, 0).toDouble / math.max(samples, 1)
  }

  /** Run `f` under a recording of execution samples only (every 10 ms per
    * running Java thread); returns its result and the profile of the samples
    * taken on threads accepted by `thread`.
    */
  def profile[A](dir: String, tag: String, categories: Seq[Category],
                 thread: String => Boolean)(f: => A): (A, Profile) = {
    val rec = new Recording()
    rec.enable("jdk.ExecutionSample").withPeriod(java.time.Duration.ofMillis(10))
    rec.start()
    val a = try f finally rec.stop()
    val file: Path = Paths.get(dir, s"$tag.jfr")
    rec.dump(file)
    rec.close()
    val events = RecordingFile.readAllEvents(file).asScala
    Files.deleteIfExists(file)
    var samples = 0
    val counts = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    events.iterator.filter(_.getEventType.getName == "jdk.ExecutionSample").foreach { e =>
      if (thread(threadName(e)) && e.getStackTrace != null) {
        samples += 1
        val frames = e.getStackTrace.getFrames.asScala.map(fr =>
          (fr.getMethod.getType.getName, fr.getMethod.getName))
        categories.find(c => frames.exists { case (cl, m) => c.frame(cl, m) })
          .foreach(c => counts(c.name) += 1)
      }
    }
    (a, Profile(samples, counts.toMap))
  }

  /** Start and stop one short recording: the first recording in a JVM
    * initialises the recorder (several seconds, and it disturbs compiled
    * code), which would otherwise be charged to the first traced op.
    */
  def init(dir: String): Double =
    Bench.time(profile(dir, "init", Nil, _ => false)(Thread.sleep(100)))._2

  private def threadName(e: RecordedEvent): String = {
    val t = e.getThread("sampledThread")
    if (t == null) "" else Option(t.getJavaName).getOrElse("")
  }

  def method(cls: String, m: String): (String, String) => Boolean =
    (c, n) => c == cls && n == m

  def cls(prefix: String): (String, String) => Boolean = (c, _) => c.startsWith(prefix)

  /** Simplification and training: precedence validate > env build >
    * candidates > DQN update.
    */
  val opCategories: Seq[Category] = Seq(
    Category("validate", method("repro.core.Training$", "validate$1")),
    Category("env_build", method("repro.core.QdtsEnv", "<init>")),
    Category("candidates", method("repro.core.QdtsEnv", "candidates")),
    Category("dqn_update", method("repro.rl.DQN", "trainStep")))

  /** Query-task profile of `Evaluator.evaluate` on `s`, repeated for two
    * seconds. JFR drops nearly all samples of `evaluate` (its stack walks
    * fail in the tight EDR/TRACLUS loops: 7 samples in 1.6 s, against ~200
    * for simplification), so this profile samples the thread's stack with
    * `Thread.getStackTrace` every 5 ms instead: biased to safepoints within
    * a method, but the task a sample belongs to is read from outer frames.
    */
  def evaluateProfile(ev: repro.exp.Experiments.Evaluator, s: repro.core.SimpleDB): Profile = {
    val target = Thread.currentThread()
    val stacks = new java.util.concurrent.ConcurrentLinkedQueue[Array[StackTraceElement]]()
    @volatile var running = true
    val sampler = new Thread(() => while (running) {
      stacks.add(target.getStackTrace)
      Thread.sleep(5)
    })
    sampler.setDaemon(true)
    sampler.start()
    try Bench.timed(2)(_ => ev.evaluate(s)) finally { running = false; sampler.join() }
    val all = stacks.asScala.toSeq
    val counts = all.flatMap(st => queryCategories.find(c =>
      st.exists(f => c.frame(f.getClassName, f.getMethodName))).map(_.name))
    Profile(all.size, counts.groupBy(identity).view.mapValues(_.size).toMap)
  }

  /** The five query tasks inside `Evaluator.evaluate`. */
  val queryCategories: Seq[Category] = Seq(
    Category("similarity", cls("repro.queries.SimilarityQuery")),
    Category("traclus", cls("repro.queries.Traclus")),
    Category("knn_edr", (c, m) => c.startsWith("repro.queries.Edr") ||
      (c == "repro.queries.KnnQuery$" && m == "$anonfun$knn$1")),
    Category("knn_emb", (c, m) => c.startsWith("repro.queries.TrajEmbed") ||
      (c == "repro.queries.KnnQuery$" && m == "$anonfun$knn$2")),
    Category("range", cls("repro.queries.RangeQuery")))
}
