package repro.core

import repro.SparkSpec
import repro.graph.{CsrGraph, GraphGen, GraphOps}

class ApproxGreedySpec extends SparkSpec {

  private lazy val karate = CsrGraph.fromDataFrame(GraphGen.karate(spark))

  test("first pick lands in the top tier of exact L† diagonal") {
    val g = karate
    val res = ApproxGreedy.run(spark, g, 1, eps = 0.15)
    val diag = Cfcc.pseudoinverseDiag(g)
    val rank = (0 until g.n).sortBy(diag).indexOf(res.picks.head)
    // JL noise can shuffle near-ties on tiny graphs; top-third is the claim
    assert(rank <= 10, s"pick ${res.picks.head} rank $rank")
    val sorted = (0 until g.n).map(diag).sorted
    assert(diag(res.picks.head) <= sorted.head + 0.5 * (sorted.last - sorted.head))
  }

  test("k picks are distinct and quality is near the exact greedy (karate)") {
    val g = karate
    val res = ApproxGreedy.run(spark, g, 4, eps = 0.2)
    assert(res.picks.distinct.length == 4)
    val c = Cfcc.exact(g, res.picks.toSet)
    val cEx = g.n / ExactGreedy.run(g, 4).traces.last
    assert(c >= 0.85 * cEx, s"approx $c vs exact $cEx")
  }

  test("solve count grows linearly with k (the paper's per-iteration solver cost)") {
    val g = karate
    val r2 = ApproxGreedy.run(spark, g, 2, eps = 0.3)
    val r4 = ApproxGreedy.run(spark, g, 4, eps = 0.3)
    assert(r4.solves > r2.solves)
  }

  test("quality on the dolphins stand-in with k=3") {
    val g = GraphOps.largestComponent(GraphGen.dolphinsLike(spark))
    val res = ApproxGreedy.run(spark, g, 3, eps = 0.2)
    val c = Cfcc.exact(g, res.picks.toSet)
    val cEx = g.n / ExactGreedy.run(g, 3).traces.last
    assert(c >= 0.85 * cEx, s"approx $c vs exact $cEx")
  }

  test("an isolated node or a k outside [1, n) fails on the driver before any Spark job") {
    val g = CsrGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 0))) // node 3 has no edge
    val (e, jobs) = countJobs(intercept[IllegalArgumentException](ApproxGreedy.run(spark, g, 2, eps = 0.5)))
    assert(e.getMessage.contains("node 3 ") && e.getMessage.contains("dense"), e.getMessage)
    assert(jobs == 0, s"$jobs jobs")
    val (ek, jobsK) = countJobs(intercept[IllegalArgumentException](ApproxGreedy.run(spark, karate, 34, eps = 0.5)))
    assert(ek.getMessage.contains("k = 34") && ek.getMessage.contains("n = 34"), ek.getMessage)
    assert(jobsK == 0, s"$jobsK jobs")
  }

  test("smaller ε does not degrade quality (karate, k=3)") {
    val g = karate
    val loose = ApproxGreedy.run(spark, g, 3, eps = 0.4, seed = 7)
    val tight = ApproxGreedy.run(spark, g, 3, eps = 0.15, seed = 7)
    val cl = Cfcc.exact(g, loose.picks.toSet)
    val ct = Cfcc.exact(g, tight.picks.toSet)
    assert(ct >= 0.95 * cl, s"tight $ct vs loose $cl")
  }
}
