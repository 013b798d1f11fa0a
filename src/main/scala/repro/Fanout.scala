package repro

import scala.reflect.ClassTag

import org.apache.spark.SparkContext

/** One parallel round of the greedy algorithms as one Spark job.
  *
  * The sampling rounds (forest indices) and APPROXGREEDY's iterations (JL
  * row indices of both its solve rounds) both fan an index range out over
  * partitions, fold each slice into one partial on an executor, and add the
  * partials on the driver.
  */
object Fanout {

  /** Run `task` on each of `slices` slices of `[start, end)` (the slicing of
    * `sc.range`) as a single `runJob`, then `add` the partials into the
    * driver-side `zero` in slice order, so the result does not depend on
    * which task finishes first.
    */
  def foldSlices[P: ClassTag, A](sc: SparkContext, start: Long, end: Long, slices: Int)
                                (task: Iterator[Long] => P)(zero: A)(add: (A, P) => A): A =
    sc.runJob(sc.range(start, end, 1, slices), task).foldLeft(zero)(add)
}
