package repro.core

import repro.SparkSpec
import repro.graph.{CsrGraph, GraphGen, GraphOps}

class ExactGreedySpec extends SparkSpec {

  private lazy val karate = CsrGraph.fromDataFrame(GraphGen.karate(spark))

  test("first pick is the argmin of diag(L†)") {
    val g = karate
    val diag = Cfcc.pseudoinverseDiag(g)
    val expected = (0 until g.n).minBy(diag)
    assert(ExactGreedy.run(g, 1).picks.head == expected)
  }

  test("greedy picks maximize the exact marginal gain at every step") {
    val g = karate
    val res = ExactGreedy.run(g, 5)
    var s = Set(res.picks.head)
    for (p <- res.picks.tail) {
      val delta = Cfcc.exactDelta(g, s)
      val bestDelta = delta.values.max
      assert(math.abs(delta(p) - bestDelta) < 1e-9, s"pick $p not argmax at S=$s")
      s = s + p
    }
  }

  test("reported traces equal Tr(L_{-S_i}^{-1}) recomputed from scratch") {
    val g = karate
    val res = ExactGreedy.run(g, 4)
    for (i <- res.picks.indices) {
      val s = res.picks.take(i + 1).toSet
      assert(math.abs(res.traces(i) - Cfcc.traceInvExact(g, s)) < 1e-7)
    }
  }

  test("traces strictly decrease (supermodular gains stay positive)") {
    val res = ExactGreedy.run(karate, 6)
    res.traces.zip(res.traces.tail).foreach { case (a, b) => assert(b < a) }
  }

  test("picks are distinct and k of them") {
    val res = ExactGreedy.run(karate, 8)
    assert(res.picks.distinct.length == 8)
  }

  test("on the grid the greedy spreads picks out spatially") {
    val g = CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 5, 5))
    val res = ExactGreedy.run(g, 2)
    val (a, b) = (res.picks(0), res.picks(1))
    val dist = GraphOps.bfs(g, Seq(a))(b)
    assert(dist >= 2, s"picks $a,$b are adjacent")
  }

  test("an isolated node or a k outside [1, n) fails before any Spark job or dense allocation") {
    val g = CsrGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 0))) // node 3 has no edge
    val (e, jobs) = countJobs(intercept[IllegalArgumentException](ExactGreedy.run(g, 2)))
    assert(e.getMessage.contains("node 3 ") && e.getMessage.contains("dense"), e.getMessage)
    assert(jobs == 0, s"$jobs jobs")
    val ek = intercept[IllegalArgumentException](ExactGreedy.run(karate, 0))
    assert(ek.getMessage.contains("k = 0") && ek.getMessage.contains("n = 34"), ek.getMessage)
  }

  test("a disconnected graph fails before any dense allocation, saying how many nodes are reachable") {
    // two triangles joined by nothing, and a pendant node on the second
    val g = CsrGraph.fromEdges(7, Seq((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (5, 6)))
    val e = intercept[IllegalArgumentException](ExactGreedy.run(g, 2))
    assert(e.getMessage.contains("not connected") && e.getMessage.contains("3 of its 7 nodes"), e.getMessage)
  }

  test("greedy achieves at least the (1 − k/(k−1)/e) bound vs the optimum (karate, k=2,3)") {
    val g = karate
    for (k <- Seq(2, 3)) {
      val greedy = ExactGreedy.run(g, k)
      val opt = Exhaustive.optimum(g, k)
      val trEmptyRef = Cfcc.traceInvExact(g, Set(ExactGreedy.run(g, 1).picks.head))
      // effectiveness in C(S) terms: greedy within a few percent of optimum
      val cGreedy = g.n / greedy.traces.last
      val cOpt = g.n / opt.trace
      assert(cGreedy >= 0.95 * cOpt, s"k=$k: greedy $cGreedy vs opt $cOpt")
      assert(trEmptyRef > 0)
    }
  }
}
