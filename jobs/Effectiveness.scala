package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Harness

/** spark-submit entrypoint reproducing the effectiveness comparisons
  * (Figs. 1–3 as tables).
  *
  * Usage: spark-submit --class repro.jobs.Effectiveness repro.jar [eps]
  */
object Effectiveness {
  def main(args: Array[String]): Unit = {
    val eps = args.lift(0).map(_.toDouble).getOrElse(0.2)
    val spark = SparkSession.builder.appName("repro-effectiveness")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer").getOrCreate()
    try {
      def write(file: String, rows: Seq[Harness.EffRow]): Unit = {
        println(Harness.renderEff(rows))
        println(s"written: ${Harness.writeResults(file, Harness.renderEff(rows))}")
      }
      write("effectiveness_tiny.md", Harness.effectivenessTiny(spark, eps, println))
      write("effectiveness_small.md", Harness.effectivenessSmall(spark, eps, println))
    } finally spark.stop()
  }
}
