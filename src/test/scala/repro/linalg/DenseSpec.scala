package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{CsrGraph, GraphGen, GraphOps}
import repro.SparkSpec
import repro.TestKit.{matvec, maxAbsDiff}

class DenseSpec extends SparkSpec {

  private def randSpd(n: Int, seed: Long): Array[Double] = {
    val rng = new java.util.SplittableRandom(seed)
    val b = Array.fill(n * n)(rng.nextDouble() - 0.5)
    // A = BᵀB + n·I is SPD
    val a = new Array[Double](n * n)
    for (i <- 0 until n; j <- 0 until n) {
      var s = if (i == j) n.toDouble else 0.0
      for (t <- 0 until n) s += b(t * n + i) * b(t * n + j)
      a(i * n + j) = s
    }
    a
  }

  /** Matrix–matrix product (both n×n). */
  private def matvecMat(a: Array[Double], b: Array[Double], n: Int): Array[Double] =
    Array.tabulate(n * n)(ij => (0 until n).map(t => a(ij / n * n + t) * b(t * n + ij % n)).sum)

  test("a graph beyond the dense limit fails with a clear message before any Spark job") {
    val n = Dense.MaxN + 1 // n² overflows Int
    val path = CsrGraph.fromEdges(n, (0 until n - 1).map(u => (u, u + 1)))
    val (e, jobs) = countJobs(intercept[IllegalArgumentException](repro.core.ExactGreedy.run(path, 2)))
    assert(e.getMessage.contains(s"n ≤ ${Dense.MaxN}"), e.getMessage)
    assert(jobs == 0, s"$jobs jobs")
    assert(Dense.zeros(3).length == 9)
  }

  for (n <- Seq(1, 2, 5, 12, 30); seed <- Seq(1L, 2L)) {
    test(s"inverse: A·A⁻¹ = I for random SPD n=$n seed=$seed") {
      val a = randSpd(n, seed)
      val inv = Dense.inverse(a, n)
      for (i <- 0 until n; j <- 0 until n) {
        var s = 0.0
        for (t <- 0 until n) s += a(i * n + t) * inv(t * n + j)
        assert(math.abs(s - (if (i == j) 1.0 else 0.0)) < 1e-9, s"entry ($i,$j)")
      }
    }
  }

  test("laplacian of karate: row sums zero, diagonal = degrees") {
    val g = CsrGraph.fromDataFrame(GraphGen.karate(spark))
    val lap = Dense.laplacian(g)
    for (i <- 0 until g.n) {
      assert(Dense.get(lap, g.n, i, i) == g.degree(i).toDouble)
      val rowSum = (0 until g.n).map(j => Dense.get(lap, g.n, i, j)).sum
      assert(math.abs(rowSum) < 1e-12)
    }
  }

  test("pseudoinverse: L·L†·L = L and L†·1 = 0 on karate") {
    val g = CsrGraph.fromDataFrame(GraphGen.karate(spark))
    val n = g.n
    val lap = Dense.laplacian(g)
    val pinv = Dense.pseudoinverse(lap, n)
    val llp = matvecMat(lap, pinv, n)
    val lplpl = matvecMat(llp, lap, n)
    assert(maxAbsDiff(lplpl, lap) < 1e-8)
    val ones = Array.fill(n)(1.0)
    val z = matvec(pinv, n, ones)
    assert(z.map(math.abs).max < 1e-8)
  }

  test("resistance distance via L† matches via L_{-j}^{-1} (Eqs. 1–2)") {
    val g = CsrGraph.fromDataFrame(GraphGen.karate(spark))
    val n = g.n
    val lap = Dense.laplacian(g)
    val pinv = Dense.pseudoinverse(lap, n)
    for (j <- Seq(0, 5, 33)) {
      val keep = (0 until n).filterNot(_ == j).toArray
      val inv = Dense.inverse(Dense.submatrix(lap, n, keep), n - 1)
      for ((i, pos) <- keep.zipWithIndex.take(8)) {
        val viaPinv = Dense.get(pinv, n, i, i) + Dense.get(pinv, n, j, j) - 2 * Dense.get(pinv, n, i, j)
        val viaSub = Dense.get(inv, n - 1, pos, pos)
        assert(math.abs(viaPinv - viaSub) < 1e-8, s"R($i,$j)")
      }
    }
  }

  test("downdate matches fresh inversion on karate submatrices") {
    val g = CsrGraph.fromDataFrame(GraphGen.karate(spark))
    val n = g.n
    val lap = Dense.laplacian(g)
    var keep = (0 until n).filterNot(_ == 7).toArray
    var m = Dense.inverse(Dense.submatrix(lap, n, keep), keep.length)
    for (victimNode <- Seq(0, 33, 12)) {
      val pos = keep.indexOf(victimNode)
      m = Dense.downdate(m, keep.length, pos)
      keep = keep.patch(pos, Nil, 1)
      val fresh = Dense.inverse(Dense.submatrix(lap, n, keep), keep.length)
      assert(maxAbsDiff(m, fresh) < 1e-8, s"after removing $victimNode")
    }
  }

  test("trace and colNormSq agree with naive loops") {
    val a = randSpd(9, 3L)
    val inv = Dense.inverse(a, 9)
    val tr = (0 until 9).map(i => inv(i * 9 + i)).sum
    assert(math.abs(Dense.trace(inv, 9) - tr) < 1e-12)
    for (j <- 0 until 9) {
      val cn = (0 until 9).map(i => inv(i * 9 + j)).map(x => x * x).sum
      assert(math.abs(Dense.colNormSq(inv, 9, j) - cn) < 1e-12)
    }
  }

  test("submatrixInverse keep list is sorted complement") {
    val g = GraphOps.largestComponent(GraphGen.erdosRenyi(spark, 40, 120, 5))
    val (keep, _) = Dense.submatrixInverse(g, Set(3, 17))
    assert(keep.toSeq == (0 until g.n).filterNot(Set(3, 17)).toSeq)
  }
}
