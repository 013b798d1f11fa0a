package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Harness

/** spark-submit entrypoint reproducing the ε sweep (Figs. 4–5 as a table).
  *
  * Usage: spark-submit --class repro.jobs.EpsilonSweep repro.jar [k]
  */
object EpsilonSweep {
  def main(args: Array[String]): Unit = {
    val k = args.lift(0).map(_.toInt).getOrElse(10)
    val spark = SparkSession.builder.appName("repro-epsilon-sweep")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer").getOrCreate()
    try {
      val table = Harness.renderEps(Harness.epsilonSweep(spark, k, println))
      println(table)
      println(s"written: ${Harness.writeResults("epsilon_sweep.md", table)}")
    } finally spark.stop()
  }
}
