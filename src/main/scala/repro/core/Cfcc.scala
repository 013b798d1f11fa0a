package repro.core

import repro.graph.CsrGraph
import repro.linalg.{Cg, Dense}

/** Current-flow closeness centrality of node groups (Section II-E) and its
  * exact / solver-based evaluation.
  *
  * `C(S) = n / Tr(L_{-S}^{-1})` (Eq. 3). Dense evaluation is the ground truth
  * for tests and small-graph benches; the CG-based evaluators mirror the
  * paper's use of conjugate gradient to score solutions on graphs where dense
  * inversion is infeasible (Section V-B2).
  */
object Cfcc {

  /** Exact `Tr(L_{-S}^{-1})` by dense inversion. */
  def traceInvExact(g: CsrGraph, s: Set[Int]): Double = {
    require(s.nonEmpty)
    val (keep, inv) = Dense.submatrixInverse(g, s)
    Dense.trace(inv, keep.length)
  }

  /** Exact `C(S)`. */
  def exact(g: CsrGraph, s: Set[Int]): Double = g.n / traceInvExact(g, s)

  /** Relative residual at which [[traceInvCg]]'s CG solves stop. */
  private final val CgTol = 1e-6

  /** `Tr(L_{-S}^{-1})` by Hutchinson's estimator with Rademacher probes and
    * CG solves — `E[zᵀ L_{-S}^{-1} z] = Tr(L_{-S}^{-1})` for ±1 entries z.
    * The probes are the columns of one multi-column solve, drawn probe after
    * probe, and their `zᵀx` are added in probe order.
    */
  def traceInvCg(g: CsrGraph, s: Set[Int], probes: Int = 64, seed: Long = 42): Double = {
    require(s.nonEmpty)
    val n = g.n
    val rng = new java.util.SplittableRandom(seed)
    var sum = 0.0
    Cg.solveColumns(g, s, probes, CgTol) { (_, bw, z) =>
      var j = 0
      while (j < bw) {
        var u = 0
        while (u < n) { if (!s.contains(u)) z(u * bw + j) = if (rng.nextBoolean()) 1.0 else -1.0; u += 1 }
        j += 1
      }
    } { (_, bw, z, x, _) =>
      val dots = new Array[Double](bw)
      var u = 0
      while (u < n) {
        var j = 0
        while (j < bw) { val k = u * bw + j; dots(j) += z(k) * x(k); j += 1 }
        u += 1
      }
      dots.foreach(sum += _)
    }
    sum / probes
  }

  /** `C(S)` via [[traceInvCg]]. */
  def approxCg(g: CsrGraph, s: Set[Int], probes: Int = 64, seed: Long = 42): Double =
    g.n / traceInvCg(g, s, probes, seed)

  /** Exact diagonal of the Laplacian pseudoinverse (first-iteration scores:
    * `Σ_v R(u,v) = Tr(L†) + n·L†_uu`, Eq. 4).
    */
  def pseudoinverseDiag(g: CsrGraph): Array[Double] = {
    val lap = Dense.laplacian(g)
    val pinv = Dense.pseudoinverse(lap, g.n)
    Array.tabulate(g.n)(u => Dense.get(pinv, g.n, u, u))
  }

  /** Exact marginal gain `Δ(u,S) = (L_{-S}^{-2})_uu / (L_{-S}^{-1})_uu`
    * (Eq. 5) for all u ∉ S — the test oracle for FORESTDELTA / SCHURDELTA.
    */
  def exactDelta(g: CsrGraph, s: Set[Int]): Map[Int, Double] = {
    require(s.nonEmpty)
    val (keep, inv) = Dense.submatrixInverse(g, s)
    val k = keep.length
    keep.zipWithIndex.map { case (node, i) =>
      node -> Dense.colNormSq(inv, k, i) / Dense.get(inv, k, i, i)
    }.toMap
  }
}
