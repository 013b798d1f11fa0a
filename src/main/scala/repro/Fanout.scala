package repro

import scala.reflect.ClassTag

import org.apache.spark.{SparkContext, TaskContext}

/** One parallel round of the greedy algorithms as one Spark job.
  *
  * The sampling rounds (forest indices) and APPROXGREEDY's iterations (JL
  * row indices of both its solve rounds) both fan an index range out over
  * partitions, fold each slice into one partial on an executor, and add the
  * partials on the driver.
  *
  * A job runs over `sc.parallelize(0 until slices, slices)`, and the
  * function it ships is an instance of a named class, not a lambda.
  * Spark's ClosureCleaner re-reads and parses the class file of every
  * lambda a job is given (and `sc.range` and the `Iterator => U` form of
  * `runJob` each add one of SparkContext's own); a named class is not a
  * closure to it, so a short round does not pay for those parses.
  */
object Fanout {

  /** Run `task` on each of `slices` slices of `[start, end)` (the slicing of
    * `sc.range(start, end, 1, slices)`) as a single `runJob`, then `add` the
    * partials into the driver-side `zero` in slice order, so the result does
    * not depend on which task finishes first. A `task` that cannot be
    * serialized fails the job with Spark's "Task not serializable".
    */
  def foldSlices[P: ClassTag, A](sc: SparkContext, start: Long, end: Long, slices: Int)
                                (task: Iterator[Long] => P)(zero: A)(add: (A, P) => A): A = {
    val parts = new Array[P](slices)
    sc.runJob(sc.parallelize(0 until slices, slices), new Slice(start, end, slices, task),
              0 until slices, (i: Int, p: P) => parts(i) = p)
    parts.foldLeft(zero)(add)
  }

  /** The task of slice `tc.partitionId`: `task` over that slice's indices. */
  private final class Slice[P](start: Long, end: Long, slices: Int, task: Iterator[Long] => P)
      extends ((TaskContext, Iterator[Int]) => P) with Serializable {
    def apply(tc: TaskContext, unused: Iterator[Int]): P = {
      // sc.range's slice i: [start + i·N/slices, start + (i+1)·N/slices),
      // N = end − start, in BigInt so that i·N cannot overflow
      val len = BigInt(end) - BigInt(start)
      val i = tc.partitionId()
      val from = (i * len / slices + start).toLong
      val until = ((i + 1) * len / slices + start).toLong
      task(new Iterator[Long] {
        private[this] var at = from
        def hasNext: Boolean = at < until
        def next(): Long = { val r = at; at += 1; r }
      })
    }
  }
}
