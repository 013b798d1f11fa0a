package repro.core

import org.apache.spark.sql.SparkSession
import repro.forest.{ForestContext, ForestSampler}
import repro.graph.{CsrGraph, GraphOps}
import repro.linalg.{Dense, Jl}

/** SCHURCFCM (Algorithm 5) with SCHURDELTA (Algorithm 4).
  *
  * Forest sampling with the *augmented* root set S ∪ T, where T holds the
  * highest-(residual-)degree hubs: walks absorb much sooner (Lemma 3.7), and
  * the T-block of `L_{-S}^{-1}` is recovered algebraically through the Schur
  * complement (Eq. 11), estimated from rooted probabilities `F̃` (Lemma 4.2)
  * and Eq. (15).
  */
object SchurCfcm {

  final case class Result(picks: Seq[Int], forests: Long)

  /** `d_max(X)` of Table I: max degree in the subgraph after removing X. */
  def residualMaxDegree(g: CsrGraph, removed: Set[Int]): Int = {
    val out = new Array[Boolean](g.n)
    removed.foreach(out(_) = true)
    var best = 0
    var u = 0
    while (u < g.n) {
      if (!out(u)) {
        var d = 0
        var i = g.off(u)
        while (i < g.off(u + 1)) { if (!out(g.adj(i))) d += 1; i += 1 }
        if (d > best) best = d
      }
      u += 1
    }
    best
  }

  /** Cap on |T|: the dense |T|³ Schur inversion must stay cheap. */
  val TCap = 320

  /** T per Section V-A: degree-peel until `|T| ≈ d_max(T)`, at most
    * [[TCap]] nodes.
    */
  def selectT(g: CsrGraph): Array[Int] = GraphOps.tStar(g, TCap)

  /** SCHURDELTA (Algorithm 4): `Δ'(u,S)` for u ∉ S using roots S ∪ T'. */
  def schurDelta(spark: SparkSession, g: CsrGraph, s: Set[Int], tAll: Array[Int],
                 cfg: ForestCfcm.Config, iter: Int): ForestCfcm.DeltaEstimates = {
    val tList = tAll.filterNot(s.contains)
    if (tList.isEmpty) return ForestCfcm.forestDelta(spark, g, s, cfg, iter)
    // Lemma 4.5 vs 3.9: SCHURDELTA's required sample size carries
    // d_max^{2τ+2}(S∪T) in place of d_max^{2τ+2}(S) — removing the hubs in T
    // slashes it. We render that conservatively (exponent softened to 1,
    // floor 0.3) on top of the shared practical budget; this is where the
    // paper's "SCHURCFCM is always faster" shows up at fixed ε.
    val dMaxS = residualMaxDegree(g, s)
    val dMaxST = residualMaxDegree(g, s ++ tList)
    val ratio = math.min(1.0, math.max(0.3, (dMaxST + 1.0) / (dMaxS + 1.0)))
    val budget = math.max(64L, (ForestSampler.budget(cfg.eps, g.n, cfg.r0) * ratio).toLong)
    assemble(spark, g, s, tList, cfg.eps, budget, cfg.seed + 31 * iter, cfg.seed + 104729L * iter)
  }

  /** The Δ assembly of SCHURDELTA, and of FORESTDELTA as its T = ∅ case:
    * sample `budget` forests (base seed `seed`) rooted at S ∪ T with the
    * rows of one JL matrix (seed `jlSeed`) as sources, then assemble z_u and
    * Y through the block form of Eq. (11). With T empty there is no Schur
    * complement: the correction term is 0, Y has no A·F̃ term and there are
    * no T rows, which leaves exactly Lemma 3.3's estimator.
    */
  private[core] def assemble(spark: SparkSession, g: CsrGraph, s: Set[Int], tList: Array[Int],
                             eps: Double, budget: Long, seed: Long,
                             jlSeed: Long): ForestCfcm.DeltaEstimates = {
    val n = g.n
    val nt = tList.length
    val w = Jl.width(eps)
    // One JL matrix over V\S; its U-part rides the forest estimator as source
    // rows (W), its T-part (Q) enters the Schur algebra below. ForestContext
    // grounds the rows at the roots, which zeroes exactly the T-part.
    val sources = Jl.materialize(jlSeed, w, n)
    val q = sources.map(row => tList.map(row(_)))
    val ctx = ForestContext(g, s ++ tList, sources, wantDiag = true, tList)
    val acc = ForestSampler.run(spark, ctx, budget, seed)
    val cnt = acc.count.toDouble

    // F̃ rows (rooted probabilities) as sparse (tIndex, prob) pairs per u ∈ U.
    // Assembly loops below are embarrassingly parallel over nodes — run them
    // on all cores (the driver owns every array; writes are per-u disjoint).
    val fIdx = new Array[Array[Int]](n)
    val fVal = new Array[Array[Double]](n)
    java.util.stream.IntStream.range(0, n).parallel().forEach { u =>
      if (!ctx.isRoot(u)) {
        var nnz = 0
        var t = 0
        while (t < nt) { if (acc.rootCnt(u * nt + t) > 0) nnz += 1; t += 1 }
        val ii = new Array[Int](nnz); val vv = new Array[Double](nnz)
        var p = 0; t = 0
        while (t < nt) {
          val c0 = acc.rootCnt(u * nt + t)
          if (c0 > 0) { ii(p) = t; vv(p) = c0 / cnt; p += 1 }
          t += 1
        }
        fIdx(u) = ii; fVal(u) = vv
      }
    }

    // Schur complement S̃_T(L_{-S}) = L_TT + L_TU·F̃ (Eq. 15): start from the
    // Laplacian T-block (full degrees, −1 between adjacent T nodes), then for
    // every U-neighbor u of t_i subtract F̃_u.
    val schur = new Array[Double](nt * nt)
    var i = 0
    while (i < nt) {
      val ti = tList(i)
      schur(i * nt + i) = g.degree(ti).toDouble
      var e = g.off(ti)
      while (e < g.off(ti + 1)) {
        val nb = g.adj(e)
        val nbT = ctx.tIndex(nb)
        if (nbT >= 0) schur(i * nt + nbT) -= 1.0
        else if (!ctx.isRoot(nb)) {
          val ii = fIdx(nb); val vv = fVal(nb)
          var p = 0
          while (p < ii.length) { schur(i * nt + ii(p)) -= vv(p); p += 1 }
        }
        e += 1
      }
      i += 1
    }
    val schurInv = Dense.inverse(schur, nt)

    // A = (W·F̃ + Q)·S̃^{-1}  (w × |T|) — parallel over the w rows.
    val wfq = new Array[Array[Double]](w)
    java.util.stream.IntStream.range(0, w).parallel().forEach { j =>
      val row = q(j).clone()
      var v = 0
      while (v < n) {
        if (!ctx.isRoot(v)) {
          val wv = ctx.sources(j)(v)
          if (wv != 0.0) {
            val ii = fIdx(v); val vv = fVal(v)
            var p = 0
            while (p < ii.length) { row(ii(p)) += wv * vv(p); p += 1 }
          }
        }
        v += 1
      }
      wfq(j) = row
    }
    val a = Array.tabulate(w) { j =>
      val out = new Array[Double](nt)
      var c1 = 0
      while (c1 < nt) {
        var acc2 = 0.0; var r = 0
        while (r < nt) { acc2 += wfq(j)(r) * schurInv(r * nt + c1); r += 1 }
        out(c1) = acc2
        c1 += 1
      }
      out
    }

    // Assemble z_u and Y columns via the block form (Eq. 11), then Δ' —
    // parallel over nodes (the Σ nnz_u² correction term is the hot loop).
    val delta = Array.fill(n)(Double.NegativeInfinity)
    val den = new Array[Double](n)
    val num = new Array[Double](n)
    java.util.stream.IntStream.range(0, n).parallel().forEach { u =>
      if (!ctx.isRoot(u)) { // u ∈ U
        val ii = fIdx(u); val vv = fVal(u)
        // z_u = (L_UU^{-1})_uu + F̃_uᵀ S̃^{-1} F̃_u
        var corr = 0.0
        var p1 = 0
        while (p1 < ii.length) {
          var p2 = 0
          while (p2 < ii.length) { corr += vv(p1) * schurInv(ii(p1) * nt + ii(p2)) * vv(p2); p2 += 1 }
          p1 += 1
        }
        val z = acc.diagSum(u) / cnt + corr
        var nsq = 0.0
        var j = 0
        while (j < w) {
          var y = acc.phiSum(j * n + u) / cnt
          var p = 0
          while (p < ii.length) { y += a(j)(ii(p)) * vv(p); p += 1 }
          nsq += y * y
          j += 1
        }
        den(u) = z; num(u) = nsq
        delta(u) = nsq / math.max(z, 1e-300)
      }
    }
    var t2 = 0
    while (t2 < nt) { // u = t ∈ T
      val t = tList(t2)
      val z = schurInv(t2 * nt + t2)
      var nsq = 0.0
      var j = 0
      while (j < w) { val y = a(j)(t2); nsq += y * y; j += 1 }
      den(t) = z; num(t) = nsq
      delta(t) = nsq / math.max(z, 1e-300)
      t2 += 1
    }
    ForestCfcm.DeltaEstimates(delta, den, num, acc.count)
  }

  /** Full SCHURCFCM greedy (Algorithm 5): FORESTCFCM's run with SCHURDELTA
    * over the residual auxiliary root set T \ S as its Δ; phase 1 is
    * FORESTCFCM's (no Schur — see the paper's remark before Theorem 4.7).
    */
  def run(spark: SparkSession, g: CsrGraph, k: Int, cfg: ForestCfcm.Config): Result = {
    val t = selectT(g)
    val (picks, forests) = ForestCfcm.greedy(spark, g, k, cfg)(schurDelta(spark, g, _, t, cfg, _))
    Result(picks, forests)
  }
}
