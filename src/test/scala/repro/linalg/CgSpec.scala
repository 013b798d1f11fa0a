package repro.linalg

import repro.SparkSpec
import repro.TestKit.{applyLaplacianMinusS, maxAbsDiff}
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
    val lx = applyLaplacianMinusS(g, inS, x)
    for (u <- 0 until g.n if !s.contains(u)) assert(math.abs(lx(u) - b(u)) < 1e-6)
  }

  test("CG on a larger BA graph converges within the iteration cap") {
    val g = GraphOps.largestComponent(GraphGen.barabasiAlbert(spark, 2000, 3, 17))
    val s = Set(g.maxDegreeNode)
    val b = Array.tabulate(g.n)(u => if (s.contains(u)) 0.0 else 1.0)
    val (x, iters) = Cg.solve(g, s, b, relTol = 1e-8)
    assert(iters < 10 * math.sqrt(g.n.toDouble).toInt + 200)
    val inS = Array.fill(g.n)(false); s.foreach(inS(_) = true)
    val lx = applyLaplacianMinusS(g, inS, x)
    val resid = (0 until g.n).map(u => math.abs(lx(u) - b(u))).max
    assert(resid < 1e-4)
  }

  test("CG fails with the iteration count and residual when an isolated node outside S carries weight") {
    // node 3 has no edge, so L_{-S} is singular and the first step is 0/0
    val g = CsrGraph.fromEdges(4, Seq((0, 1), (1, 2)))
    val b = Array(0.0, 0.0, 0.0, 1.0)
    val e = intercept[ArithmeticException](Cg.solve(g, Set(0), b, 1e-8))
    assert(e.getMessage.contains("after 1 iterations") && e.getMessage.contains("NaN"), e.getMessage)
  }

  private lazy val ba2k = GraphOps.largestComponent(GraphGen.barabasiAlbert(spark, 2000, 3, 17))

  /** Node-major block filler for the columns `bs`. */
  private def fillFrom(g: CsrGraph, bs: IndexedSeq[Array[Double]])(c0: Int, bw: Int, b: Array[Double]): Unit =
    for (j <- 0 until bw; u <- 0 until g.n) b(u * bw + j) = bs(c0 + j)(u)

  for ((name, gf) <- Seq("karate" -> (() => karate), "BA n = 2,000" -> (() => ba2k))) {
    test(s"every column of a multi-column solve equals Cg.solve on it, bit for bit ($name)") {
      val g = gf()
      val s = Set(g.maxDegreeNode, 1)
      val rng = new java.util.SplittableRandom(5)
      def masked(f: Int => Double): Array[Double] = Array.tabulate(g.n)(u => if (s.contains(u)) 0.0 else f(u))
      // a zero column, random columns at scales 1 and 1e6, a point load and
      // the all-ones load: more columns than one block holds
      val bs = IndexedSeq(new Array[Double](g.n)) ++
        (0 until 70).map(j => masked(_ => (if (j % 2 == 0) 1.0 else 1e6) * (rng.nextDouble() - 0.5))) ++
        IndexedSeq(masked(u => if (u == g.n - 1) 1.0 else 0.0), masked(_ => 1.0))
      for (tol <- Seq(1e-6, 1e-10)) {
        val iters = new Array[Int](bs.length)
        Cg.solveColumns(g, s, bs.length, tol)(fillFrom(g, bs)) { (c0, bw, _, x, it) =>
          for (j <- 0 until bw) {
            val (xs, is) = Cg.solve(g, s, bs(c0 + j), tol)
            val col = Array.tabulate(g.n)(u => x(u * bw + j))
            assert(java.util.Arrays.equals(col, xs) && it(j) == is, s"column ${c0 + j} at $tol: ${it(j)} vs $is iterations")
            iters(c0 + j) = it(j)
          }
        }
        assert(iters(0) == 0, s"zero column: ${iters(0)} iterations")
        assert(iters.tail.distinct.length > 1, s"every column stopped after ${iters(1)} iterations at $tol")
      }
    }
  }

  test("a NaN column fails the multi-column solve, naming the column, its iterations and its residual") {
    // node 3 has no edge: column 1 loads it, so its first step is 0/0
    val g = CsrGraph.fromEdges(4, Seq((0, 1), (1, 2)))
    val bs = IndexedSeq(Array(0.0, 1.0, 1.0, 0.0), Array(0.0, 0.0, 0.0, 1.0), Array(0.0, 1.0, 0.0, 0.0))
    val e = intercept[ArithmeticException] {
      Cg.solveColumns(g, Set(0), bs.length, 1e-8)(fillFrom(g, bs))((_, _, _, _, _) => fail("a failed block reached use"))
    }
    val m = e.getMessage
    assert(m.contains("column 1:") && m.contains("after 1 iterations") && m.contains("NaN"), m)
  }

  test("CG rejects empty S (singular L)") {
    intercept[IllegalArgumentException] {
      Cg.solve(karate, Set.empty, Array.fill(karate.n)(1.0), 1e-8)
    }
  }
}
