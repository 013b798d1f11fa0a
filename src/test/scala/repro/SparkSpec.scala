package repro

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** `body`'s value and the number of Spark jobs it started. `body` runs
    * under a job group of its own; a marker job afterwards flushes the
    * listener, which sees job starts in order, so every job of `body` has
    * been counted once the marker's start has arrived.
    */
  def countJobs[A](body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val log = SparkSpec.jobGroups
    val group = s"countJobs-${SparkSpec.groupIds.incrementAndGet()}"
    def inGroup[B](id: String)(f: => B): B = {
      sc.setJobGroup(id, id)
      try f finally sc.clearJobGroup()
    }
    val out = inGroup(group)(body)
    val marker = s"$group-marker"
    inGroup(marker)(sc.parallelize(Seq(1), 1).count())
    val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
    while (!log.contains(marker) && System.nanoTime() < deadline) Thread.sleep(5)
    assert(log.contains(marker), "the listener never saw the marker job")
    var jobs = 0
    log.forEach(g => if (g == group) jobs += 1)
    (out, jobs)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // The serializer perfbench runs with. Kryo writes primitive arrays at
      // full width (an int[1e6] of zeros takes 4,000,005 bytes), so the
      // sampler's accumulator varint-encodes its diagonal sums and root rows
      // itself (ForestAcc.Wire)
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer")
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }

  /** Job group of every job started in the shared session, in start order. */
  lazy val jobGroups: ConcurrentLinkedQueue[String] = {
    val q = new ConcurrentLinkedQueue[String]()
    shared.sparkContext.addSparkListener(new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        q.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse(""))
    })
    q
  }

  private val groupIds = new AtomicInteger
}
