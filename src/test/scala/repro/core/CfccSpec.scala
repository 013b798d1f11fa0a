package repro.core

import repro.SparkSpec
import repro.TestKit.maxDegree
import repro.graph.{CsrGraph, GraphGen, GraphOps}
import repro.linalg.Dense

class CfccSpec extends SparkSpec {

  private lazy val karate = CsrGraph.fromDataFrame(GraphGen.karate(spark))

  test("C(S) grows when S grows (monotonicity of the reciprocal trace)") {
    val g = karate
    var s = Set(0)
    var prev = Cfcc.exact(g, s)
    for (u <- Seq(33, 2, 25)) {
      s = s + u
      val cur = Cfcc.exact(g, s)
      assert(cur > prev, s"C($s)=$cur should exceed $prev")
      prev = cur
    }
  }

  test("marginal gain identity (Eq. 5): Δ(u,S) = Tr(L_{-S}^{-1}) − Tr(L_{-(S+u)}^{-1})") {
    val g = karate
    for (s <- Seq(Set(0), Set(33, 5), Set(1, 2, 3))) {
      val delta = Cfcc.exactDelta(g, s)
      val trS = Cfcc.traceInvExact(g, s)
      for (u <- (0 until g.n).filterNot(s.contains).take(6)) {
        val direct = trS - Cfcc.traceInvExact(g, s + u)
        assert(math.abs(delta(u) - direct) < 1e-8, s"Δ($u,$s): ${delta(u)} vs $direct")
      }
    }
  }

  test("first-iteration score (Eq. 4): Σ_v R(u,v) = Tr(L†) + n·L†_uu") {
    val g = karate
    val n = g.n
    val lap = Dense.laplacian(g)
    val pinv = Dense.pseudoinverse(lap, n)
    val trPinv = Dense.trace(pinv, n)
    for (u <- Seq(0, 7, 33)) {
      // resistance distances via Eq. (1); the cross terms vanish since L†·1 = 0
      var sumR = 0.0
      for (v <- 0 until n)
        sumR += Dense.get(pinv, n, u, u) + Dense.get(pinv, n, v, v) - 2 * Dense.get(pinv, n, u, v)
      assert(math.abs(sumR - (trPinv + n * Dense.get(pinv, n, u, u))) < 1e-7)
    }
  }

  test("Hutchinson trace (CG) approximates the exact trace") {
    val g = karate
    for (s <- Seq(Set(0), Set(33, 0))) {
      val exact = Cfcc.traceInvExact(g, s)
      val est = Cfcc.traceInvCg(g, s, probes = 400, seed = 3)
      assert(math.abs(est - exact) / exact < 0.1, s"S=$s est=$est exact=$exact")
    }
  }

  test("approxCg and exact agree on C(S)") {
    val g = karate
    val s = Set(0, 33)
    assert(math.abs(Cfcc.approxCg(g, s, probes = 400) - Cfcc.exact(g, s)) / Cfcc.exact(g, s) < 0.1)
  }

  test("pseudoinverseDiag: trace equals sum of diag and L†_uu bounds hold") {
    val g = karate
    val diag = Cfcc.pseudoinverseDiag(g)
    // all diagonal entries of L† on a connected graph satisfy the known lower
    // bound d_max^{-1}(1−1/n)² (Theorem 3.11's proof)
    val lb = (1.0 - 1.0 / g.n) * (1.0 - 1.0 / g.n) / maxDegree(g)
    diag.foreach(d => assert(d >= lb - 1e-12))
  }

  test("C(S) on a grid: central node set beats a corner set") {
    val g = CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 7, 7))
    val center = Set(24) // (3,3)
    val corner = Set(0)
    assert(Cfcc.exact(g, center) > Cfcc.exact(g, corner))
  }
}
