package repro.bench

import repro.SparkSpec
import repro.core.ForestCfcm
import repro.graph.{GraphGen, GraphOps}

/** Reproduces the paper's ε sweep (Figs. 4–5 as a table): running time and
  * relative difference of `C(S)` vs EXACT for ε ∈ [0.15, 0.4], k = 10.
  * Results land in `bench_results/epsilon_sweep.md`.
  */
class EpsilonSweepBench extends SparkSpec {

  private val k = 10

  test("ε sweep: time grows and the gap to EXACT shrinks as ε decreases") {
    // JIT/Spark warm-up so the first timed cell is not inflated
    ForestCfcm.run(spark, GraphOps.largestComponent(GraphGen.barabasiAlbert(spark, 500, 3, 1)),
                   3, ForestCfcm.Config(0.3, seed = 1))
    val rows = Harness.epsilonSweep(spark, k, info(_))
    for (name <- rows.map(_.graph).distinct) {
      val stats = rows.filter(_.graph == name)
      // work grows as ε shrinks: the sampled-forest counts are deterministic
      // in ε (wall time at 1–2k nodes is dominated by the constant Spark
      // scheduling floor, so it is reported but not asserted)
      assert(stats.last.forestForests > stats.head.forestForests, s"$name: forest samples not growing with 1/ε")
      assert(stats.last.schurForests > stats.head.schurForests, s"$name: schur samples not growing with 1/ε")
      // solution quality at ε=0.15/0.2 is near-exact (paper: saturates ≤0.2)
      assert(stats.last.forestRel < 0.05, s"$name: forest relΔ ${stats.last.forestRel} at ε=0.15")
      assert(stats.last.schurRel < 0.05, s"$name: schur relΔ ${stats.last.schurRel} at ε=0.15")
    }
    val table = Harness.renderEps(rows)
    Harness.writeResults("epsilon_sweep.md", table)
    println(table)
  }
}
