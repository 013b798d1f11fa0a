package repro.core

import repro.graph.CsrGraph
import repro.linalg.Dense

/** EXACT greedy baseline (Section V-A): greedy CFCM with exact marginal
  * gains from dense matrix inversion.
  *
  * Cost is one O(n³) inversion for the first iteration plus an O(n²) Schur
  * *downdate* per subsequent pick (removing a row/column from an inverted
  * matrix needs no re-inversion), so EXACT is usable to a few thousand nodes
  * — mirroring the paper, where it is marked infeasible beyond that.
  */
object ExactGreedy {

  /** Greedy result: the selected nodes in pick order and `Tr(L_{-S_i}^{-1})`
    * after each pick (for effectiveness curves).
    */
  final case class Result(picks: Seq[Int], traces: Seq[Double])

  def run(g: CsrGraph, k: Int): Result = {
    require(k >= 1 && k < g.n)
    val n = g.n
    // First pick: argmin of diag(L†) — Eq. (4) — ties to the lowest id.
    val first = Greedy.argmax(Cfcc.pseudoinverseDiag(g).map(-_), Set.empty)

    // Maintain M = L_{-S}^{-1} over `keep`, the ids outside S in ascending order.
    var (keep, m) = Dense.submatrixInverse(g, Set(first))
    val traces = scala.collection.mutable.ArrayBuffer(Dense.trace(m, keep.length))
    // Downdate M for the one pick in S still in `keep` (the previous pick).
    def dropPicked(s: Set[Int]): Unit = {
      val j = keep.indexWhere(s.contains)
      if (j >= 0) {
        m = Dense.downdate(m, keep.length, j)
        keep = keep.patch(j, Nil, 1)
        traces += Dense.trace(m, keep.length)
      }
    }
    val picks = Greedy.run(k, first) { (s, _) =>
      dropPicked(s)
      // Δ(u,S) = ||M e_u||² / M_uu (Eq. 5).
      val sz = keep.length
      val delta = Array.fill(n)(Double.NegativeInfinity)
      var j = 0
      while (j < sz) { delta(keep(j)) = Dense.colNormSq(m, sz, j) / Dense.get(m, sz, j, j); j += 1 }
      delta
    }
    dropPicked(picks.toSet)
    Result(picks, traces.toSeq)
  }
}
