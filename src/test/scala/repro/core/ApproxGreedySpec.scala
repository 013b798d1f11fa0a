package repro.core

import repro.SparkSpec
import repro.graph.{CsrGraph, GraphGen, GraphOps}
import repro.linalg.{Cg, Jl}

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

  test("a disconnected graph fails on the driver before any Spark job, saying how many nodes are reachable") {
    // two triangles joined by nothing, and a pendant node on the second
    val g = CsrGraph.fromEdges(7, Seq((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (5, 6)))
    val (e, jobs) = countJobs(intercept[IllegalArgumentException](ApproxGreedy.run(spark, g, 2, eps = 0.5)))
    assert(e.getMessage.contains("not connected") && e.getMessage.contains("3 of its 7 nodes"), e.getMessage)
    assert(jobs == 0, s"$jobs jobs")
  }

  /** APPROXGREEDY re-driven on the driver: every right-hand side solved on
    * its own with `Cg.solve`, each solve round's JL rows cut into the same
    * slices as a job's tasks and the slices' squared sums added in slice
    * order. Returns the picks and the CG iterations of every solve.
    */
  private def redrive(g: CsrGraph, k: Int, eps: Double, seed: Long): (Seq[Int], Long) = {
    val n = g.n
    val w = ApproxGreedy.width(eps, n)
    val slices = math.min(spark.sparkContext.defaultParallelism, w)
    val edges = g.edgeList
    var iters = 0L
    def sumSq(s: Set[Int], jlSeed: Long, incidenceSide: Boolean): Array[Double] = {
      val total = new Array[Double](n)
      for (slice <- 0 until slices) {
        val acc = new Array[Double](n)
        for (j <- (slice.toLong * w / slices).toInt until ((slice + 1).toLong * w / slices).toInt) {
          val rhs = new Array[Double](n)
          if (incidenceSide) for (((a, b), e) <- edges.zipWithIndex) {
            val q = Jl.entry(jlSeed, j, e, w)
            if (!s.contains(a)) rhs(a) += q
            if (!s.contains(b)) rhs(b) -= q
          }
          else for (v <- 0 until n if !s.contains(v)) rhs(v) = Jl.entry(jlSeed, j, v, w)
          val (x, it) = Cg.solve(g, s, rhs, 1e-6)
          iters += it
          for (u <- 0 until n) acc(u) += x(u) * x(u)
        }
        for (u <- 0 until n) total(u) += acc(u)
      }
      total
    }
    val s0 = g.maxDegreeNode
    val dInv = sumSq(Set(s0), seed, incidenceSide = true)
    val (h, hIters) = Cg.solve(g, Set(s0), Array.tabulate(n)(u => if (u == s0) 0.0 else 1.0), 1e-6)
    iters += hIters
    val first = Greedy.firstPick(Array.tabulate(n)(u => dInv(u) - 2.0 / n * h(u)), s0)
    val picks = Greedy.run(k, first) { (s, i) =>
      val den = sumSq(s, seed + 1000 * i, incidenceSide = true)
      val num = sumSq(s, seed + 1000 * i + 500, incidenceSide = false)
      Array.tabulate(n)(u => num(u) / math.max(den(u), 1e-300))
    }
    (picks, iters)
  }

  test("run picks and CG iterations equal a column-by-column re-drive (karate and BA n = 300, k = 4)") {
    val ba = GraphOps.largestComponent(GraphGen.barabasiAlbert(spark, 300, 3, 11))
    for ((g, eps) <- Seq((karate, 0.3), (ba, 0.8))) {
      val res = ApproxGreedy.run(spark, g, 4, eps, seed = 5)
      val (picks, iters) = redrive(g, 4, eps, seed = 5)
      assert(res.picks == picks, s"n = ${g.n}: run ${res.picks} vs re-drive $picks")
      assert(res.cgIters == iters, s"n = ${g.n}: run ${res.cgIters} vs re-drive $iters CG iterations")
      assert(res.cgIters >= res.solves, s"n = ${g.n}: ${res.cgIters} iterations over ${res.solves} solves")
    }
  }
}
