package repro.core

import org.apache.spark.sql.SparkSession
import repro.Fanout
import repro.graph.CsrGraph
import repro.linalg.{Cg, Jl}

/** APPROXGREEDY — the state-of-the-art baseline (Li et al., WWW'19;
  * Section II-F): greedy CFCM where the diagonals of `L_{-S}^{-1}` and
  * `L_{-S}^{-2}` are estimated by Johnson–Lindenstrauss projections plus a
  * nearly-linear SDD solver.
  *
  * Identities used (with `B` the m×n signed incidence matrix, `L = BᵀB`):
  *  - `(L_{-S}^{-1})_uu = ||B_{-S} L_{-S}^{-1} e_u||²` → JL-project `QB`
  *    (w×m→w×n) and solve `L_{-S} y_j = (QB)_jᵀ`; diag ≈ Σ_j y_j(u)².
  *  - `(L_{-S}^{-2})_uu = ||L_{-S}^{-1} e_u||²` → solve `L_{-S} z_j = q_jᵀ`
  *    for plain JL rows; diag ≈ Σ_j z_j(u)².
  * First iteration: Lemma 3.5 with S = {max-degree node}.
  *
  * Faithfulness notes (DESIGN.md): the baseline keeps its *published* JL
  * constant `w = ⌈24·ε^{-2}·log n⌉` — the O(ε^{-2} log n) solves per
  * iteration are exactly the cost the paper's Table II charges APPROXGREEDY
  * for (e.g. 34 s on the 2,000-node Hamsterster on 72 threads) — while the
  * Julia Kyng–Sachdeva solver is substituted by Jacobi-preconditioned CG.
  * Each solve round is one Spark job with the graph broadcast; only one
  * sum-of-squares vector per slice comes back.
  */
object ApproxGreedy {

  final case class Result(picks: Seq[Int], solves: Long)

  /** Published JL width of the baseline. */
  def width(eps: Double, n: Int): Int =
    math.max(8, math.ceil(24.0 * math.log(math.max(3, n)) / (eps * eps)).toInt)

  def run(spark: SparkSession, g: CsrGraph, k: Int, eps: Double, seed: Long = 1234,
          cgTol: Double = 1e-6): Result = {
    require(k >= 1 && k < g.n)
    val n = g.n
    val w = width(eps, n)
    val sc = spark.sparkContext
    val bcG = sc.broadcast(g)
    try {
      val parallelism = sc.defaultParallelism
      var solves = 0L

      // Σ_j x_j(u)² for the w solutions of L_{-S} x_j = rhs(j), distributed:
      // each slice of JL rows builds its right-hand sides locally from the
      // broadcast graph + JL seed, solves them, and returns one n-vector of
      // partial squared sums; the driver adds them in slice order.
      def sumSqOfSolves(s: Set[Int], jlSeed: Long, incidenceSide: Boolean): Array[Double] = {
        solves += w
        Fanout.foldSlices(sc, 0L, w, math.min(parallelism, w)) { it =>
          val gg = bcG.value
          val inS = new Array[Boolean](gg.n); s.foreach(inS(_) = true)
          val acc = new Array[Double](gg.n)
          val edges = if (incidenceSide) gg.edgeList else null
          it.foreach { jl =>
            val j = jl.toInt
            val rhs = new Array[Double](gg.n)
            if (incidenceSide) {
              var e = 0
              while (e < edges.length) {
                val (a, b) = edges(e)
                val q = Jl.entry(jlSeed, j, e, w)
                if (!inS(a)) rhs(a) += q
                if (!inS(b)) rhs(b) -= q
                e += 1
              }
            } else {
              var v = 0
              while (v < gg.n) { if (!inS(v)) rhs(v) = Jl.entry(jlSeed, j, v, w); v += 1 }
            }
            val (x, _) = Cg.solve(gg, s, rhs, cgTol)
            var u = 0
            while (u < gg.n) { val xv = x(u); acc(u) += xv * xv; u += 1 }
          }
          acc
        } { (a, b) => var i = 0; while (i < a.length) { a(i) += b(i); i += 1 }; a }
      }

      def diagInv(s: Set[Int], jlSeed: Long): Array[Double] = sumSqOfSolves(s, jlSeed, incidenceSide = true)
      def diagInvSq(s: Set[Int], jlSeed: Long): Array[Double] = sumSqOfSolves(s, jlSeed, incidenceSide = false)

      // ---- first pick: argmin L†_uu via Lemma 3.5 around the max-degree node.
      val s0 = g.maxDegreeNode
      val dInv = diagInv(Set(s0), seed)
      val ones = Array.tabulate(n)(u => if (u == s0) 0.0 else 1.0)
      val (h, _) = Cg.solve(g, Set(s0), ones, cgTol); solves += 1
      var first = s0; var bestX = 0.0 // x_{s0} = 0 after dropping the constant term
      for (u <- 0 until n if u != s0) {
        val x = dInv(u) - 2.0 / n * h(u)
        if (x < bestX) { bestX = x; first = u }
      }

      val picks = Greedy.run(k, first) { (s, i) =>
        val den = diagInv(s, seed + 1000 * i)
        val num = diagInvSq(s, seed + 1000 * i + 500)
        Array.tabulate(n)(u => num(u) / math.max(den(u), 1e-300))
      }
      Result(picks, solves)
    } finally bcG.destroy()
  }
}
