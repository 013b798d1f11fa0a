package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{ApproxGreedy, ForestCfcm, SchurCfcm}
import repro.graph.{CsrGraph, GraphGen, GraphOps}

/** The benchmark's workloads. All pick k = 20 nodes, the paper's setting.
  * Why each exists, and which layer metrics it is meant to move, is in
  * `perfbench/README.md`.
  */
object Workloads {

  val K = 20

  sealed trait Algo
  case object Forest extends Algo
  case object Schur extends Algo
  case object Approx extends Algo

  /** The algorithm's seed (`Config.seed` or APPROXGREEDY's `seed`), derived
    * from the benchmark's `--seed`. The graphs are fixed, so the seed changes
    * only the sampler's and the JL projections' random draws.
    */
  def algoSeed(seed: Long): Long = new java.util.SplittableRandom(seed).nextLong() & Long.MaxValue

  /** @param generate graph generator call (the `graph.gen` layer)
    * @param toCsr    CSR build and largest component (the `graph.lcc` layer)
    * @param setups   untimed warm-up set-ups, and then as many timed ones
    * @param exactGate check `cfcc` against EXACT greedy's (dense, small n)
    */
  final case class Workload(name: String, algo: Algo, eps: Double,
                            generate: SparkSession => DataFrame,
                            toCsr: DataFrame => CsrGraph, setups: Int, exactGate: Boolean = false) {
    def config(algoSeed: Long): ForestCfcm.Config = ForestCfcm.Config(eps, seed = algoSeed)
  }

  /** A Barabási–Albert graph with the generator seed fixed to n, as `Harness`
    * seeds its Table II stand-ins.
    */
  private def ba(n: Int, m: Int)(spark: SparkSession): DataFrame =
    GraphGen.barabasiAlbert(spark, n, m, n)

  val all: Seq[Workload] = Seq(
    Workload("schur-ba17k", Schur, 0.5, ba(16848, 5), GraphOps.largestComponent, setups = 3),
    Workload("forest-road1k", Forest, 0.2, GraphGen.grid2d(_, 32, 32),
             CsrGraph.fromDataFrame, setups = 8, exactGate = true),
    Workload("approx-ba1k", Approx, 0.8, ba(1000, 8), GraphOps.largestComponent, setups = 6),
  )

  /** Picks of one untraced greedy call through the public entry point. */
  def run(spark: SparkSession, w: Workload, g: CsrGraph, k: Int, algoSeed: Long): Seq[Int] = w.algo match {
    case Forest => ForestCfcm.run(spark, g, k, w.config(algoSeed)).picks
    case Schur => SchurCfcm.run(spark, g, k, w.config(algoSeed)).picks
    case Approx => ApproxGreedy.run(spark, g, k, w.eps, algoSeed).picks
  }
}
