package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import scala.collection.mutable

/** Task-level Spark statistics per job group, from a `SparkListener`. */
final class SparkStats extends SparkListener {

  final case class Task(stage: Int, runMs: Long, records: Long, shuffleWrite: Long)

  private val stageGroup = mutable.Map.empty[Int, String]
  private val tasks = mutable.Map.empty[String, mutable.ArrayBuffer[Task]]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    g.foreach(group => e.stageInfos.foreach(s => stageGroup(s.stageId) = group))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (group <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      tasks.getOrElseUpdate(group, mutable.ArrayBuffer.empty) += Task(e.stageId,
        m.executorRunTime, m.inputMetrics.recordsRead + m.shuffleReadMetrics.recordsRead,
        m.shuffleWriteMetrics.bytesWritten)
    }
  }

  /** Run `f` as job group `group`; returns once the listener has seen all
    * of its events.
    */
  def inGroup[A](sc: SparkContext, group: String)(f: => A): A = {
    sc.setJobGroup(group, group)
    try f finally {
      sc.clearJobGroup()
      org.apache.spark.ListenerDrain(sc)
    }
  }

  /** Tasks, shuffle megabytes written, and task skew of the group's busiest
    * stage: its slowest task over its median task, among tasks that read
    * records (empty hash partitions are not work).
    */
  def summary(group: String): (Int, Double, Double) = synchronized {
    val ts = tasks.getOrElse(group, mutable.ArrayBuffer.empty).toSeq
    if (ts.isEmpty) return (0, 0.0, 0.0)
    val busiest = ts.groupBy(_.stage).maxBy(_._2.map(_.runMs).sum)._2
    val busy = busiest.filter(_.records > 0).map(t => math.max(t.runMs, 1L).toDouble)
    val skew = if (busy.isEmpty) 1.0 else busy.max / Bench.median(busy)
    (ts.length, ts.map(_.shuffleWrite).sum / 1e6, skew)
  }
}

object SparkPlans {

  /** Every node of an executed plan, looking through adaptive execution. */
  def nodes(p: SparkPlan): Seq[SparkPlan] = p match {
    case a: AdaptiveSparkPlanExec => nodes(a.executedPlan)
    case q: QueryStageExec        => q +: nodes(q.plan)
    case other                    => other +: other.children.flatMap(nodes)
  }

  private def rows(p: SparkPlan): Long = p match {
    case q: QueryStageExec => rows(q.plan)
    case _ => p.metrics.get("numOutputRows").map(_.value).getOrElse(p.children.map(rows).sum)
  }

  /** (point-query pairs examined, pairs matched) of the range join over
    * `points` x `queries` input rows. A cartesian or nested-loop join
    * examines every pair and emits the matches; an equi-join examines the
    * pairs it emits, and a filter directly above it keeps the matches.
    */
  def joinPairs(plan: SparkPlan, points: Long, queries: Long): (Long, Long) = {
    val all = nodes(plan)
    val joins = all.filter { p =>
      val n = p.getClass.getSimpleName
      n.contains("Join") || n.contains("CartesianProduct")
    }
    require(joins.nonEmpty, "no join in the range-query plan")
    val j = joins.head
    val name = j.getClass.getSimpleName
    if (name.contains("Cartesian") || name.contains("NestedLoop")) (points * queries, rows(j))
    else {
      val filter = all.find(p => p.getClass.getSimpleName == "FilterExec" && p.children.contains(j))
      (rows(j), filter.map(rows).getOrElse(rows(j)))
    }
  }
}
