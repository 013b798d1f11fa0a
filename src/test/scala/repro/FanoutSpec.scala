package repro

import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._

import org.apache.spark.SparkException

/** `Fanout.foldSlices`: the slices it hands its tasks, the order it adds
  * their partials in, its one job per call, and a task that cannot ship.
  */
class FanoutSpec extends SparkSpec {

  private def sc = spark.sparkContext

  test("each slice gets exactly the indices sc.range gives it") {
    // start > 0, N not divisible by slices, N = slices, N < slices, N = 0,
    // and bounds near Long.MaxValue
    val table = Seq[(Long, Long, Int)](
      (0L, 10L, 4), (5L, 17L, 5), (7L, 11L, 4), (3L, 5L, 4), (9L, 9L, 2), (0L, 1L, 1),
      (1L << 40, (1L << 40) + 1001, 7), (Long.MaxValue - 10, Long.MaxValue, 3))
    for ((start, end, slices) <- table) {
      val ranges = sc.range(start, end, 1, slices).glom().collect().map(_.toSeq).toSeq
      val got = Fanout.foldSlices(sc, start, end, slices)(_.toArray)(Vector.empty[Seq[Long]])(_ :+ _.toSeq)
      assert(got == ranges, s"[$start, $end) in $slices slices")
    }
  }

  test("partials are added in slice order when slice 0 finishes last") {
    assume(sc.defaultParallelism >= 2, "needs two task slots")
    val slices = 4
    val (order, endTimes) = Fanout.foldSlices(sc, 0L, 40L, slices) { it =>
      val first = it.next()
      if (first == 0L) Thread.sleep(500)
      ((first / 10).toInt, System.nanoTime())
    }((Vector.empty[Int], Vector.empty[Long])) { case ((o, t), (i, end)) => (o :+ i, t :+ end) }
    assert(endTimes.head == endTimes.max, s"slice 0 did not finish last: $endTimes")
    assert(order == (0 until slices))
  }

  test("one call starts exactly one Spark job") {
    val (sum, jobs) = countJobs(Fanout.foldSlices(sc, 0L, 100L, 3)(_.sum)(0L)(_ + _))
    assert(sum == 4950L)
    assert(jobs == 1)
  }

  test("a task that captures something unserializable fails on the driver with Task not serializable") {
    val lock = new Object
    val run = Future(Fanout.foldSlices(sc, 0L, 8L, 2) { it => lock.synchronized(it.size) }(0)(_ + _))
    val e = intercept[SparkException](Await.result(run, 120.seconds))
    assert(e.getMessage.contains("Task not serializable"), e.getMessage)
    // the context still runs jobs
    assert(Fanout.foldSlices(sc, 0L, 8L, 2)(_.size)(0)(_ + _) == 8)
  }
}
