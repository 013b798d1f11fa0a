package repro.bench

import repro.SparkSpec

/** Reproduces the paper's effectiveness comparisons as tables:
  * Fig. 1 (tiny graphs vs the exhaustive OPTIMUM, k ≤ 3) and Figs. 2–3
  * (small graphs: DEGREE / TOP-CFCC / APPROX / FOREST / SCHUR / EXACT,
  * k ∈ {5, 10, 20}), all scored with the exact `C(S)`.
  * Results land in `bench_results/effectiveness.md`.
  */
class EffectivenessBench extends SparkSpec {

  private val eps = 0.2 // the paper's effectiveness setting

  test("Fig. 1 (as table): tiny graphs — greedy solutions reach the optimum") {
    val rows = Harness.effectivenessTiny(spark, eps, info(_))
    val table = Harness.renderEff(rows)
    Harness.writeResults("effectiveness_tiny.md", table)
    println(table)
    for (r <- rows) {
      val m = r.scores.toMap
      val opt = m("OPTIMUM")
      // Monte-Carlo spread at ε=0.2 on hub-free tiny grids sits around
      // 0.87–0.95 of optimum for FORESTCFCM (the paper's Fig. 1 likewise
      // shows it slightly below the optimum curve)
      assert(m("SCHURCFCM") >= 0.88 * opt, s"${r.graph} k=${r.k}: SCHUR ${m("SCHURCFCM")} vs OPT $opt")
      assert(m("FORESTCFCM") >= 0.85 * opt, s"${r.graph} k=${r.k}: FOREST ${m("FORESTCFCM")} vs OPT $opt")
      // greedy-vs-optimum gap bottoms out ≈0.928 on grid graphs at k=2 —
      // far above the theoretical (1 − k/(k−1)/e) bound
      assert(m("EXACT") >= 0.9 * opt, s"${r.graph} k=${r.k}: EXACT ${m("EXACT")} vs OPT $opt")
      assert(m("EXACT") <= opt + 1e-9)
    }
  }

  test("Figs. 2–3 (as table): small graphs — greedy family dominates heuristics") {
    val rows = Harness.effectivenessSmall(spark, eps, info(_))
    val table = Harness.renderEff(rows)
    Harness.writeResults("effectiveness_small.md", table)
    println(table)
    for (r <- rows) {
      val m = r.scores.toMap
      val ex = m("EXACT")
      // paper: SCHURCFCM consistently the most effective sampling method
      assert(m("SCHURCFCM") >= 0.93 * ex, s"${r.graph} k=${r.k}: SCHUR ${m("SCHURCFCM")} vs EXACT $ex")
      assert(m("FORESTCFCM") >= 0.88 * ex, s"${r.graph} k=${r.k}: FOREST ${m("FORESTCFCM")} vs EXACT $ex")
      // greedy beats both pure heuristics
      assert(ex >= m("DEGREE") - 1e-9, s"${r.graph} k=${r.k}: EXACT vs DEGREE")
      assert(ex >= m("TOP-CFCC") - 1e-9, s"${r.graph} k=${r.k}: EXACT vs TOP-CFCC")
    }
  }
}
