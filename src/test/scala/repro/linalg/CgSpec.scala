package repro.linalg

import repro.SparkSpec
import repro.TestKit.maxAbsDiff
import repro.graph.{CsrGraph, GraphGen, GraphOps}

class CgSpec extends SparkSpec {

  private lazy val karate = CsrGraph.fromDataFrame(GraphGen.karate(spark))
  private lazy val grid = CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 8, 8))

  private def denseSolve(g: CsrGraph, s: Set[Int], b: Array[Double]): Array[Double] = {
    val (keep, inv) = Dense.submatrixInverse(g, s)
    val x = new Array[Double](g.n)
    for ((u, i) <- keep.zipWithIndex) {
      var t = 0.0
      for ((v, j) <- keep.zipWithIndex) t += Dense.get(inv, keep.length, i, j) * b(v)
      x(u) = t
    }
    x
  }

  for ((name, gf) <- Seq("karate" -> (() => karate), "grid8x8" -> (() => grid));
       sSpec <- Seq(Set(0), Set(0, 5), Set(1, 2, 3))) {
    test(s"CG matches dense solve on $name with S=$sSpec") {
      val g = gf()
      val rng = new java.util.SplittableRandom(11)
      val b = Array.tabulate(g.n)(u => if (sSpec.contains(u)) 0.0 else rng.nextDouble() - 0.5)
      val (x, iters) = Cg.solve(g, sSpec, b, relTol = 1e-10)
      val xd = denseSolve(g, sSpec, b)
      assert(maxAbsDiff(x, xd) < 1e-6, s"iters=$iters")
    }
  }

  test("CG solution is zero on S and satisfies the residual equation") {
    val g = karate
    val s = Set(2, 8)
    val b = Array.tabulate(g.n)(u => if (s.contains(u)) 0.0 else 1.0)
    val (x, _) = Cg.solve(g, s, b, relTol = 1e-10)
    s.foreach(u => assert(x(u) == 0.0))
    val inS = Array.fill(g.n)(false); s.foreach(inS(_) = true)
    val lx = Cg.applyLaplacianMinusS(g, inS, x)
    for (u <- 0 until g.n if !s.contains(u)) assert(math.abs(lx(u) - b(u)) < 1e-6)
  }

  test("CG on a larger BA graph converges within the iteration cap") {
    val g = GraphOps.largestComponent(GraphGen.barabasiAlbert(spark, 2000, 3, 17))
    val s = Set(g.maxDegreeNode)
    val b = Array.tabulate(g.n)(u => if (s.contains(u)) 0.0 else 1.0)
    val (x, iters) = Cg.solve(g, s, b, relTol = 1e-8)
    assert(iters < 10 * math.sqrt(g.n.toDouble).toInt + 200)
    val inS = Array.fill(g.n)(false); s.foreach(inS(_) = true)
    val lx = Cg.applyLaplacianMinusS(g, inS, x)
    val resid = (0 until g.n).map(u => math.abs(lx(u) - b(u))).max
    assert(resid < 1e-4)
  }

  test("CG rejects empty S (singular L)") {
    intercept[IllegalArgumentException] {
      Cg.solve(karate, Set.empty, Array.fill(karate.n)(1.0), 1e-8)
    }
  }
}
