package repro.forest

import org.apache.spark.sql.SparkSession
import repro.Fanout

/** Spark-distributed forest sampling with a fixed budget.
  *
  * The paper's sampling loops (Algorithms 2–5, Lines "for r' = 1.. do for
  * i = 1..2^{r'} do in parallel") map to one Spark job
  * ([[Fanout.foldSlices]]) per sampling phase over slices of the forest
  * indices against a broadcast [[ForestContext]]; every slice folds its
  * forests into one [[ForestAcc]] and the driver merges the partials in slice
  * order. The paper's empirical-Bernstein stop (Lemma 3.6) is not applied:
  * at the practical budget it never fired (DESIGN.md), so every phase samples
  * its whole budget.
  */
object ForestSampler {

  /** Practical sample budget for error parameter ε on an n-node graph — the
    * theoretical bound (8) is astronomically conservative (`d_max^{2τ+2}`);
    * this keeps the ε^{-2}·log n scaling with a usable constant (DESIGN.md).
    */
  def budget(eps: Double, n: Int, r0: Double = 2.0): Long =
    math.max(64L, math.ceil(r0 * math.log(math.max(3, n)) / (eps * eps)).toLong)

  /** Sample `forests` forests and return their merged sums.
    *
    * @param spark   session (RDD fan-out; local CSR sampling inside tasks)
    * @param ctx     phase configuration (graph, roots, sources, …)
    * @param forests sample count
    * @param seed    base seed; forest i uses SplittableRandom(mix(seed, i))
    */
  def run(spark: SparkSession, ctx: ForestContext, forests: Long, seed: Long): ForestAcc = {
    val sc = spark.sparkContext
    val bcCtx = sc.broadcast(ctx)
    try {
      val slices = math.min(sc.defaultParallelism.toLong, forests).toInt
      Fanout.foldSlices(sc, 0L, forests, slices) { it =>
        val c = bcCtx.value
        val acc = new ForestAcc(c.nsrc, c.n, c.wantDiag, c.numT)
        val scr = new ForestScratch(c)
        it.foreach { i =>
          val rng = new java.util.SplittableRandom(seed * 0x9e3779b97f4a7c15L + i)
          val f = Wilson.sample(c.g, c.isRoot, c.numRoots, rng)
          ForestStats.fold(c, f, acc, scr)
        }
        acc
      }(_ merge _)
    } finally bcCtx.destroy()
  }
}
