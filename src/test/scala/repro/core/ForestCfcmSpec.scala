package repro.core

import repro.SparkSpec
import repro.graph.{CsrGraph, GraphGen, GraphOps}

class ForestCfcmSpec extends SparkSpec {

  private lazy val karate = CsrGraph.fromDataFrame(GraphGen.karate(spark))
  private val cfg = ForestCfcm.Config(eps = 0.2, r0 = 8.0, seed = 5)

  test("firstPick lands in the top tier of exact L† diagonal") {
    val g = karate
    val (pick, forests) = ForestCfcm.firstPick(spark, g, cfg)
    val diag = Cfcc.pseudoinverseDiag(g)
    val rank = (0 until g.n).sortBy(diag).indexOf(pick)
    assert(rank <= 3, s"first pick $pick has rank $rank in exact ordering")
    assert(forests > 0)
  }

  test("forestDelta estimates track exact Δ(u,S) (karate, S={33})") {
    val g = karate
    val s = Set(33)
    val est = ForestCfcm.forestDelta(spark, g, s, cfg, iter = 1)
    val exact = Cfcc.exactDelta(g, s)
    // estimator quality: correlation of rankings is what the greedy needs
    for ((u, d) <- exact) {
      assert(est.delta(u) > 0)
      assert(math.abs(est.delta(u) - d) < 0.6 * d + 0.3, s"Δ($u): est=${est.delta(u)} exact=$d")
    }
    // and the argmax should be near-optimal in exact terms
    val pick = exact.keys.maxBy(est.delta)
    val bestExact = exact.values.max
    assert(exact(pick) >= 0.8 * bestExact, s"picked $pick with exact gain ${exact(pick)} vs $bestExact")
  }

  test("forestDelta denominator matches exact diag of L_{-S}^{-1}") {
    val g = karate
    val s = Set(0, 33)
    val est = ForestCfcm.forestDelta(spark, g, s, cfg, iter = 2)
    val (keep, inv) = repro.linalg.Dense.submatrixInverse(g, s)
    for ((u, i) <- keep.zipWithIndex) {
      val ex = repro.linalg.Dense.get(inv, keep.length, i, i)
      assert(math.abs(est.den(u) - ex) < math.max(0.25 * ex, 0.15), s"den($u)=${est.den(u)} vs $ex")
    }
  }

  test("full run returns k distinct nodes with near-exact quality (karate, k=4)") {
    val g = karate
    val res = ForestCfcm.run(spark, g, 4, cfg)
    assert(res.picks.distinct.length == 4)
    val cForest = Cfcc.exact(g, res.picks.toSet)
    val cExact = g.n / ExactGreedy.run(g, 4).traces.last
    assert(cForest >= 0.9 * cExact, s"forest $cForest vs exact $cExact")
  }

  test("run picks equal a re-drive through firstPick and forestDelta with a lowest-id argmax") {
    val g = CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 6, 6))
    val c = ForestCfcm.Config(eps = 0.3, seed = 3)
    val res = ForestCfcm.run(spark, g, 4, c)
    val picks = scala.collection.mutable.ArrayBuffer(ForestCfcm.firstPick(spark, g, c)._1)
    for (i <- 1 until 4) {
      val delta = ForestCfcm.forestDelta(spark, g, picks.toSet, c, i).delta
      picks += (0 until g.n).filterNot(picks.contains).reduceLeft((a, b) => if (delta(b) > delta(a)) b else a)
    }
    assert(res.picks == picks.toSeq)
  }

  test("quality improves (weakly) with smaller ε on the dolphins stand-in") {
    val g = GraphOps.largestComponent(GraphGen.dolphinsLike(spark))
    val loose = ForestCfcm.run(spark, g, 3, ForestCfcm.Config(eps = 0.45, r0 = 1.0, seed = 2))
    val tight = ForestCfcm.run(spark, g, 3, ForestCfcm.Config(eps = 0.15, r0 = 8.0, seed = 2))
    val cLoose = Cfcc.exact(g, loose.picks.toSet)
    val cTight = Cfcc.exact(g, tight.picks.toSet)
    assert(cTight >= 0.95 * cLoose, s"tight $cTight vs loose $cLoose")
    assert(tight.forests >= loose.forests)
  }

  test("run on the grid spreads roots and beats the degree heuristic") {
    val g = CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 6, 6))
    val res = ForestCfcm.run(spark, g, 3, cfg)
    val cForest = Cfcc.exact(g, res.picks.toSet)
    val degPicks = (0 until g.n).sortBy(u => (-g.degree(u), u)).take(3).toSet
    val cDeg = Cfcc.exact(g, degPicks)
    assert(cForest >= 0.95 * cDeg, s"forest $cForest vs degree $cDeg")
  }
}
