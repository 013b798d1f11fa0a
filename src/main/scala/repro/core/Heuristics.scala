package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.{CsrGraph, GraphOps}

/** Heuristic baselines of Section V-A. */
object Heuristics {

  /** DEGREE: the k nodes of largest degree (ties by node id). Expressed as a
    * Catalyst query over the edge DataFrame — the tests check it against the
    * same query run on DuckDB.
    */
  def degreeTopK(edges: DataFrame, k: Int): Seq[Int] =
    degreeTopKDf(edges, k).collect().map(_.getInt(0)).toSeq

  /** The DataFrame behind [[degreeTopK]]: columns `(node, degree)`. */
  def degreeTopKDf(edges: DataFrame, k: Int): DataFrame =
    GraphOps.degrees(edges)
      .orderBy(desc("degree"), asc("node"))
      .limit(k)
      .select(col("node").cast("int").as("node"), col("degree").cast("long").as("degree"))

  /** TOP-CFCC: the k nodes with the largest single-node CFCC, i.e. smallest
    * `L†_uu` (Section II-D). Exact (dense) for small graphs; estimated with
    * the phase-1 forest estimator otherwise.
    */
  def topCfcc(spark: SparkSession, g: CsrGraph, k: Int,
              denseLimit: Int = 3000, cfg: ForestCfcm.Config = ForestCfcm.Config(0.2)): Seq[Int] = {
    val score: Array[Double] =
      if (g.n <= denseLimit) Cfcc.pseudoinverseDiag(g)
      else ForestCfcm.firstPickScores(spark, g, cfg)._1 // x_u ranks L†_uu up to a constant
    (0 until g.n).sortBy(u => (score(u), u)).take(k)
  }
}
