package repro.core

import org.apache.spark.sql.SparkSession
import repro.forest.{ForestContext, ForestSampler}
import repro.graph.CsrGraph
import repro.linalg.Jl

/** FORESTCFCM (Algorithm 3) with FORESTDELTA (Algorithm 2).
  *
  * Greedy CFCM where every marginal quantity is estimated from uniformly
  * sampled rooted spanning forests (Lemma 3.3), fanned out over Spark with a
  * fixed forest budget per phase.
  */
object ForestCfcm {

  /** Sampling knobs.
    *
    * @param eps  the paper's error parameter ε — drives the JL width
    *             (`Jl.width`) and the forest budget (`ForestSampler.budget`)
    * @param r0   forest-budget constant (budget = ⌈r0·ε^{-2}·ln n⌉)
    * @param seed base RNG seed (forests, JL)
    */
  final case class Config(eps: Double, r0: Double = 2.0, seed: Long = 99)

  final case class Result(picks: Seq[Int], forests: Long)

  /** Marginal-gain estimates for one greedy iteration: `delta(u)` for
    * u ∉ S (−∞ inside S), with the estimator internals exposed for tests.
    */
  final case class DeltaEstimates(delta: Array[Double], den: Array[Double],
                                  numSq: Array[Double], forests: Long)

  /** Phase 1 of Algorithm 3 (Lines 1–14): root the forests at the max-degree
    * node s and score `x_u = Φ̄_{u,{s}}(u) − (2/n)·Φ̄_{1,{s}}(u)`, which ranks
    * `L†_uu` up to a common constant (Lemma 3.5, constant term dropped;
    * `x_s = 0`). Returns the scores and the forest count.
    */
  def firstPickScores(spark: SparkSession, g: CsrGraph, cfg: Config): (Array[Double], Long) = {
    val s = g.maxDegreeNode
    val ones = Array.fill(g.n)(1.0)
    val ctx = ForestContext(g, Set(s), Array(ones), wantDiag = true)
    val acc = ForestSampler.run(spark, ctx, ForestSampler.budget(cfg.eps, g.n, cfg.r0), cfg.seed)
    val x = Array.tabulate(g.n) { u =>
      if (u == s) 0.0 else acc.diagSum(u) / acc.count - 2.0 / g.n * (acc.phiSum(u) / acc.count)
    }
    (x, acc.count)
  }

  /** First greedy pick (Algorithm 3): the argmin of [[firstPickScores]], ties
    * to s and then to the lowest id. Returns the pick and the forest count.
    */
  def firstPick(spark: SparkSession, g: CsrGraph, cfg: Config): (Int, Long) = {
    val (x, forests) = firstPickScores(spark, g, cfg)
    val s = g.maxDegreeNode
    var best = s; var bestX = 0.0
    var u = 0
    while (u < g.n) {
      if (x(u) < bestX) { bestX = x(u); best = u } // x_s = 0 never beats bestX ≤ 0
      u += 1
    }
    (best, forests)
  }

  /** FORESTDELTA (Algorithm 2): estimate `Δ(u,S)` for all u ∉ S by sampling
    * forests rooted at S with JL source rows.
    */
  def forestDelta(spark: SparkSession, g: CsrGraph, s: Set[Int], cfg: Config,
                  iter: Int): DeltaEstimates = {
    val w = Jl.width(cfg.eps)
    val jlSeed = cfg.seed + 7919L * iter
    val sources = Array.tabulate(w)(j => Array.tabulate(g.n)(v => Jl.entry(jlSeed, j, v, w)))
    val ctx = ForestContext(g, s, sources, wantDiag = true)
    val acc = ForestSampler.run(spark, ctx, ForestSampler.budget(cfg.eps, g.n, cfg.r0), cfg.seed + iter)
    val n = g.n
    val delta = Array.fill(n)(Double.NegativeInfinity)
    val den = new Array[Double](n)
    val num = new Array[Double](n)
    var u = 0
    while (u < n) {
      if (!ctx.isRoot(u)) {
        var nsq = 0.0
        var j = 0
        while (j < w) { val y = acc.phiSum(j * n + u) / acc.count; nsq += y * y; j += 1 }
        val z = acc.diagSum(u) / acc.count
        den(u) = z; num(u) = nsq
        delta(u) = nsq / math.max(z, 1e-300)
      }
      u += 1
    }
    DeltaEstimates(delta, den, num, acc.count)
  }

  /** Full FORESTCFCM greedy (Algorithm 3). */
  def run(spark: SparkSession, g: CsrGraph, k: Int, cfg: Config): Result = {
    require(k >= 1 && k < g.n)
    val (first, f0) = firstPick(spark, g, cfg)
    var forests = f0
    val picks = Greedy.run(k, first) { (s, i) =>
      val est = forestDelta(spark, g, s, cfg, i)
      forests += est.forests
      est.delta
    }
    Result(picks, forests)
  }
}
