package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable.ArrayBuffer

/** Outside-in trace of one benchmark run.
  *
  * Spans are recorded by the benchmark around its calls into the program's
  * public functions (`graph`, `core`, `forest`, `linalg`); Spark jobs and
  * their tasks come from a [[SparkListener]]. Every span keeps its parent, so
  * a layer's self time is its duration minus the part its children cover.
  * All times are epoch milliseconds, the clock Spark stamps its events with.
  */
final class Trace {
  import Trace._

  private val epochAtNano0 = System.currentTimeMillis().toDouble - System.nanoTime() / 1e6
  private def nowMs: Double = epochAtNano0 + System.nanoTime() / 1e6

  val spans: ArrayBuffer[Span] = ArrayBuffer.empty
  private var open: List[Int] = Nil

  /** Time `body` as a span named `name` under the innermost open span. */
  def span[A](name: String)(body: => A): A = {
    val id = spans.length
    spans += Span(id, name, open.headOption.getOrElse(-1), nowMs, Double.NaN)
    open = id :: open
    try body
    finally {
      spans(id) = spans(id).copy(endMs = nowMs)
      open = open.tail
    }
  }

  def named(name: String): Seq[Span] = spans.toSeq.filter(_.name == name)
}

object Trace {
  final case class Span(id: Int, name: String, parent: Int, startMs: Double, endMs: Double) {
    def seconds: Double = (endMs - startMs) / 1e3
  }

  final case class TaskRec(runMs: Long, cpuNs: Long, resultBytes: Long, resultSerMs: Long,
                           deserMs: Long, gcMs: Long)

  final case class JobRec(id: Int, group: String, startMs: Long, var endMs: Long = -1L,
                          tasks: ArrayBuffer[TaskRec] = ArrayBuffer.empty) {
    def seconds: Double = (endMs - startMs) / 1e3
  }

  /** Collects Spark job spans (keyed by job group) and task metrics. */
  final class JobListener extends SparkListener {
    private val jobs = scala.collection.mutable.LinkedHashMap.empty[Int, JobRec]
    private val stageToJob = scala.collection.mutable.HashMap.empty[Int, Int]

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      jobs(e.jobId) = JobRec(e.jobId, group.getOrElse(""), e.time)
      e.stageIds.foreach(stageToJob(_) = e.jobId)
    }

    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      jobs.get(e.jobId).foreach(_.endMs = e.time)
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      val m = e.taskMetrics
      if (m != null) stageToJob.get(e.stageId).flatMap(jobs.get).foreach { j =>
        j.tasks += TaskRec(m.executorRunTime, m.executorCpuTime, m.resultSize,
                           m.resultSerializationTime, m.executorDeserializeTime, m.jvmGCTime)
      }
    }

    /** Jobs of the given groups, and jobs of no group with an id above
      * `after`, once every one of them has ended, in start order. Listener
      * events arrive asynchronously, so this waits for the jobs Spark's
      * status tracker knows.
      */
    def finishedJobs(sc: SparkContext, groups: Seq[String], after: Int): Seq[JobRec] = {
      val ungrouped = sc.statusTracker.getJobIdsForGroup(null).filter(_ > after)
      val expected = (groups.flatMap(g => sc.statusTracker.getJobIdsForGroup(g).toSeq) ++ ungrouped).toSet
      val deadline = System.nanoTime() + 30L * 1000000000L
      def ready: Boolean = synchronized {
        expected.forall(id => jobs.get(id).exists(_.endMs >= 0))
      }
      while (!ready && System.nanoTime() < deadline) Thread.sleep(20)
      // task-end events of a job precede its job-end event on the bus
      require(ready, s"listener missed job ends for groups ${groups.mkString(",")}")
      synchronized(jobs.values.filter(j => expected.contains(j.id)).toSeq.sortBy(_.startMs))
    }
  }

  /** Id of the last job Spark has seen with no job group, or -1. */
  def lastUngroupedJob(sc: SparkContext): Int =
    sc.statusTracker.getJobIdsForGroup(null).maxOption.getOrElse(-1)

  /** Peak heap occupancy right after a collection, from GC notifications. */
  final class HeapAfterGc {
    import java.lang.management.{ManagementFactory, MemoryType}
    @volatile var peakBytes: Long = 0L
    private val heapPools = ManagementFactory.getMemoryPoolMXBeans.toArray
      .collect { case p: java.lang.management.MemoryPoolMXBean if p.getType == MemoryType.HEAP => p.getName }.toSet
    private val listener = new javax.management.NotificationListener {
      override def handleNotification(n: javax.management.Notification, hb: AnyRef): Unit = {
        import com.sun.management.GarbageCollectionNotificationInfo
        if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
          val info = GarbageCollectionNotificationInfo.from(
            n.getUserData.asInstanceOf[javax.management.openmbean.CompositeData])
          var used = 0L
          info.getGcInfo.getMemoryUsageAfterGc.forEach((pool, u) => if (heapPools(pool)) used += u.getUsed)
          synchronized { if (used > peakBytes) peakBytes = used }
        }
      }
    }
    ManagementFactory.getGarbageCollectorMXBeans.forEach {
      case e: javax.management.NotificationEmitter => e.addNotificationListener(listener, null, null)
      case _ =>
    }
  }
}
