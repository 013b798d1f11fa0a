package repro.core

import org.apache.spark.sql.SparkSession
import repro.forest.{ForestContext, ForestSampler}
import repro.graph.CsrGraph

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
      if (u == s) 0.0 else acc.diagSum(u) / acc.count - 2.0 / g.n * (acc.phi(0, u) / acc.count)
    }
    (x, acc.count)
  }

  /** First greedy pick (Algorithm 3): [[Greedy.firstPick]] over
    * [[firstPickScores]]. Returns the pick and the forest count.
    */
  def firstPick(spark: SparkSession, g: CsrGraph, cfg: Config): (Int, Long) = {
    val (x, forests) = firstPickScores(spark, g, cfg)
    (Greedy.firstPick(x, g.maxDegreeNode), forests)
  }

  /** FORESTDELTA (Algorithm 2): estimate `Δ(u,S)` for all u ∉ S by sampling
    * forests rooted at S with JL source rows — SCHURDELTA's assembly with
    * T = ∅ at the full forest budget.
    */
  def forestDelta(spark: SparkSession, g: CsrGraph, s: Set[Int], cfg: Config,
                  iter: Int): DeltaEstimates =
    SchurCfcm.assemble(spark, g, s, Array.emptyIntArray, cfg.eps, ForestSampler.budget(cfg.eps, g.n, cfg.r0),
                       cfg.seed + iter, cfg.seed + 7919L * iter)

  /** Full FORESTCFCM greedy (Algorithm 3). */
  def run(spark: SparkSession, g: CsrGraph, k: Int, cfg: Config): Result = {
    val (picks, forests) = greedy(spark, g, k, cfg)(forestDelta(spark, g, _, cfg, _))
    Result(picks, forests)
  }

  /** The run body FORESTCFCM and SCHURCFCM share: [[Greedy.requireInput]],
    * [[firstPick]], then [[Greedy.run]] over `delta`. Returns the picks and
    * the forests sampled.
    */
  private[core] def greedy(spark: SparkSession, g: CsrGraph, k: Int, cfg: Config)
                          (delta: (Set[Int], Int) => DeltaEstimates): (Seq[Int], Long) = {
    Greedy.requireInput(g, k)
    val (first, f0) = firstPick(spark, g, cfg)
    var forests = f0
    val picks = Greedy.run(k, first) { (s, i) =>
      val est = delta(s, i)
      forests += est.forests
      est.delta
    }
    (picks, forests)
  }
}
