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
  * Each greedy iteration is one Spark job with the graph broadcast: its
  * tasks solve the JL right-hand sides of both estimates, each task one
  * estimate's slice of JL rows as the columns of one multi-column CG, and
  * only one sum-of-squares vector per slice comes back.
  */
object ApproxGreedy {

  /** @param solves CG solves, one per right-hand side
    * @param cgIters CG iterations summed over every solve
    */
  final case class Result(picks: Seq[Int], solves: Long, cgIters: Long)

  /** Published JL width of the baseline. */
  def width(eps: Double, n: Int): Int =
    math.max(8, math.ceil(24.0 * math.log(math.max(3, n)) / (eps * eps)).toInt)

  /** Relative residual at which every CG solve stops. */
  private final val CgTol = 1e-6

  def run(spark: SparkSession, g: CsrGraph, k: Int, eps: Double, seed: Long = 1234): Result = {
    Greedy.requireInput(g, k)
    val n = g.n
    val w = width(eps, n)
    val sc = spark.sparkContext
    val bcG = sc.broadcast(g)
    try {
      val slices = math.min(sc.defaultParallelism, w)
      var solves = 0L
      var cgIters = 0L

      // Σ_j x_j(u)² over the w solutions of L_{-S} x_j = rhs_j, for each
      // (JL seed, incidence side) solve round, as one Spark job: round r owns
      // the indices [r·w, (r+1)·w), cut into `slices` slices of JL rows, so
      // each task builds one round's right-hand sides for its rows from the
      // broadcast graph + JL seed, solves them as the columns of one CG, and
      // returns one n-vector of partial squared sums with its iteration
      // total; the driver adds each round's partials in slice order.
      def sumSqOfSolves(s: Set[Int], rounds: Seq[(Long, Boolean)]): Seq[Array[Double]] = {
        solves += rounds.length.toLong * w
        val (sums, iters) = Fanout.foldSlices(sc, 0L, rounds.length.toLong * w, rounds.length * slices) { it =>
          val idx = it.toArray
          val round = (idx(0) / w).toInt
          val j0 = (idx(0) - round.toLong * w).toInt
          val (jlSeed, incidenceSide) = rounds(round)
          val gg = bcG.value
          val inS = new Array[Boolean](gg.n); s.foreach(inS(_) = true)
          val acc = new Array[Double](gg.n)
          var iters = 0L
          Cg.solveColumns(gg, s, idx.length, CgTol) { (c0, bw, rhs) =>
            if (incidenceSide) {
              // the edges (u, v), u < v, in `edgeList` order
              var e = 0
              var u = 0
              while (u < gg.n) {
                var i = gg.off(u)
                while (i < gg.off(u + 1)) {
                  val v = gg.adj(i)
                  if (u < v) {
                    var j = 0
                    while (j < bw) {
                      val q = Jl.entry(jlSeed, j0 + c0 + j, e, w)
                      if (!inS(u)) rhs(u * bw + j) += q
                      if (!inS(v)) rhs(v * bw + j) -= q
                      j += 1
                    }
                    e += 1
                  }
                  i += 1
                }
                u += 1
              }
            } else {
              var v = 0
              while (v < gg.n) {
                if (!inS(v)) { var j = 0; while (j < bw) { rhs(v * bw + j) = Jl.entry(jlSeed, j0 + c0 + j, v, w); j += 1 } }
                v += 1
              }
            }
          } { (_, bw, _, x, colIters) =>
            var u = 0
            while (u < gg.n) {
              var j = 0
              while (j < bw) { val xv = x(u * bw + j); acc(u) += xv * xv; j += 1 }
              u += 1
            }
            colIters.foreach(iters += _)
          }
          (round, acc, iters)
        }((Seq.fill(rounds.length)(new Array[Double](n)), 0L)) { case ((sums, total), (round, acc, iters)) =>
          val a = sums(round); var i = 0; while (i < a.length) { a(i) += acc(i); i += 1 }
          (sums, total + iters)
        }
        cgIters += iters
        sums
      }

      // ---- first pick: argmin L†_uu via Lemma 3.5 around the max-degree node.
      val s0 = g.maxDegreeNode
      val Seq(dInv) = sumSqOfSolves(Set(s0), Seq((seed, true)))
      val ones = Array.tabulate(n)(u => if (u == s0) 0.0 else 1.0)
      val (h, hIters) = Cg.solve(g, Set(s0), ones, CgTol)
      solves += 1; cgIters += hIters
      val first = Greedy.firstPick(Array.tabulate(n)(u => dInv(u) - 2.0 / n * h(u)), s0)

      val picks = Greedy.run(k, first) { (s, i) =>
        val Seq(den, num) = sumSqOfSolves(s, Seq((seed + 1000 * i, true), (seed + 1000 * i + 500, false)))
        Array.tabulate(n)(u => Greedy.delta(num(u), den(u)))
      }
      Result(picks, solves, cgIters)
    } finally bcG.destroy()
  }
}
