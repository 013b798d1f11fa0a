package repro.forest

import org.apache.spark.sql.SparkSession
import repro.Fanout

/** Spark-distributed, adaptively batched forest sampling.
  *
  * The paper's sampling loops (Algorithms 2–5, Lines "for r' = 1.. do for
  * i = 1..2^{r'} do in parallel") map to: doubling batches, each batch one
  * Spark job ([[Fanout.foldSlices]]) over slices of the forest indices
  * against a broadcast [[ForestContext]]; every slice folds its forests into
  * one [[ForestAcc]] and the driver merges the partials in slice order.
  * After each batch the driver evaluates the empirical-Bernstein stopping
  * rule (Lemma 3.6).
  */
object ForestSampler {

  /** Practical sample budget for error parameter ε on an n-node graph — the
    * theoretical bound (8) is astronomically conservative (`d_max^{2τ+2}`);
    * this keeps the ε^{-2}·log n scaling with a usable constant (DESIGN.md).
    */
  def budget(eps: Double, n: Int, r0: Double = 2.0): Long =
    math.max(64L, math.ceil(r0 * math.log(math.max(3, n)) / (eps * eps)).toLong)

  /** Result of a sampling phase. */
  final case class Sampled(acc: ForestAcc, forests: Long, converged: Boolean)

  /** Sample forests until `stop(acc)` is true or the budget is exhausted.
    *
    * @param spark    session (RDD fan-out; local CSR sampling inside tasks)
    * @param ctx      phase configuration (graph, roots, sources, …)
    * @param maxForests sample budget
    * @param seed     base seed; forest i uses SplittableRandom(mix(seed, i))
    * @param stop     adaptive stopping predicate evaluated after each batch
    */
  def run(spark: SparkSession, ctx: ForestContext, maxForests: Long, seed: Long)
         (stop: ForestAcc => Boolean): Sampled = {
    val sc = spark.sparkContext
    val bcCtx = sc.broadcast(ctx)
    try {
      val parallelism = sc.defaultParallelism
      val total = new ForestAcc(ctx.nsrc, ctx.n, ctx.wantDiag, ctx.numT)
      var done = 0L
      // Few, large batches: per-batch cost includes shipping one accumulator
      // (O(nsrc·n) doubles + O(n·|T|) ints) per partition back to the driver,
      // so ≤2 batches beat the paper's literal 2^{r'} schedule while keeping
      // one adaptive-stop checkpoint (4096 cap keeps huge explicit budgets
      // from disabling the stop entirely).
      var batch = math.min(4096L, math.max(64L, maxForests / 2))
      var converged = false
      while (!converged && done < maxForests) {
        val thisBatch = math.min(batch, maxForests - done)
        val slices = math.min(parallelism.toLong, thisBatch).toInt
        val partial = Fanout.foldSlices(sc, done, done + thisBatch, slices) { it =>
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
        total.merge(partial)
        done += thisBatch
        converged = stop(total)
        batch *= 2 // doubling batches, as in the paper's r' loop
      }
      Sampled(total, done, converged)
    } finally bcCtx.destroy()
  }

  /** Empirical-Bernstein additive error bound (Lemma 3.6) for a mean
    * estimated from `cnt` samples with given sum and sum of squares.
    *
    * @param xSup   a.s. bound on |X|
    * @param logTerm `log(3/δ)` — the paper uses δ = 1/n
    */
  def bernstein(sum: Double, sqSum: Double, cnt: Long, xSup: Double, logTerm: Double): Double = {
    val mean = sum / cnt
    val varE = math.max(0.0, sqSum / cnt - mean * mean)
    math.sqrt(2.0 * varE * logTerm / cnt) + 3.0 * xSup * logTerm / cnt
  }
}
