package repro.forest

import repro.SparkSpec
import repro.graph.{CsrGraph, GraphGen, GraphOps}
import repro.linalg.Dense

/** Verifies that the forest-based estimators of Lemma 3.3 (voltages from
  * sampled-forest currents) are unbiased against dense `L_{-S}^{-1}`.
  * Forests are folded locally (no Spark) so the tests are fast and the
  * sample counts controlled; the Spark fan-out is covered by SamplerSpec.
  */
class EstimatorSpec extends SparkSpec {

  private lazy val karate = CsrGraph.fromDataFrame(GraphGen.karate(spark))
  private lazy val grid = CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 5, 5))

  private def foldMany(ctx: ForestContext, forests: Int, seed: Long): ForestAcc = {
    val acc = new ForestAcc(ctx.nsrc, ctx.n, ctx.wantDiag, ctx.numT)
    val scr = new ForestScratch(ctx)
    val rng = new java.util.SplittableRandom(seed)
    for (_ <- 0 until forests) ForestStats.fold(ctx, Wilson.sample(ctx.g, ctx.isRoot, ctx.numRoots, rng), acc, scr)
    acc.integrate(ctx)
  }

  private def exactInv(g: CsrGraph, s: Set[Int]): (Array[Int], Array[Double]) =
    Dense.submatrixInverse(g, s)

  for ((name, gf, s) <- Seq(
    ("karate/S={0}", () => karate, Set(0)),
    ("karate/S={33,0}", () => karate, Set(33, 0)),
    ("karate/S={13}", () => karate, Set(13)),
    ("grid5x5/S={12}", () => grid, Set(12)),
    ("grid5x5/S={0,24}", () => grid, Set(0, 24)),
  )) {
    test(s"diagonal estimator is unbiased: $name") {
      val g = gf()
      val ctx = ForestContext(g, s, Array(Array.fill(g.n)(1.0)), wantDiag = true)
      val acc = foldMany(ctx, 30000, seed = 7)
      val (keep, inv) = exactInv(g, s)
      for ((u, i) <- keep.zipWithIndex) {
        val est = acc.diagSum(u) / acc.count
        val ex = Dense.get(inv, keep.length, i, i)
        assert(math.abs(est - ex) < 0.08 * math.max(ex, 0.3),
               s"diag($u): est=$est exact=$ex")
      }
    }

    test(s"all-ones voltage estimator is unbiased: $name") {
      val g = gf()
      val ctx = ForestContext(g, s, Array(Array.fill(g.n)(1.0)), wantDiag = false)
      val acc = foldMany(ctx, 30000, seed = 8)
      val (keep, inv) = exactInv(g, s)
      for ((u, i) <- keep.zipWithIndex) {
        val est = acc.phi(0, u) / acc.count
        var ex = 0.0 // 1ᵀ L_{-S}^{-1} e_u
        for (j <- keep.indices) ex += Dense.get(inv, keep.length, j, i)
        assert(math.abs(est - ex) < math.max(0.1 * ex, 0.6), s"phi1($u): est=$est exact=$ex")
      }
    }
  }

  test("single-source voltage estimator matches a full column of L_{-S}^{-1} (karate)") {
    val g = karate
    val s = Set(33)
    val src = 5
    val w = Array.fill(g.n)(0.0); w(src) = 1.0
    val ctx = ForestContext(g, s, Array(w), wantDiag = false)
    val acc = foldMany(ctx, 40000, seed = 9)
    val (keep, inv) = exactInv(g, s)
    val srcIdx = keep.indexOf(src)
    for ((u, i) <- keep.zipWithIndex) {
      val est = acc.phi(0, u) / acc.count
      val ex = Dense.get(inv, keep.length, srcIdx, i)
      assert(math.abs(est - ex) < 0.05, s"Φ_{$src,S}($u): est=$est exact=$ex")
    }
  }

  test("arbitrary-weight voltage estimator is linear in the source (grid)") {
    val g = grid
    val s = Set(0)
    val rng = new java.util.SplittableRandom(4)
    val w = Array.tabulate(g.n)(u => if (u == 0) 0.0 else rng.nextDouble() - 0.3)
    val ctx = ForestContext(g, s, Array(w), wantDiag = false)
    val acc = foldMany(ctx, 30000, seed = 10)
    val (keep, inv) = exactInv(g, s)
    for ((u, i) <- keep.zipWithIndex) {
      var ex = 0.0
      for ((v, j) <- keep.zipWithIndex) ex += w(v) * Dense.get(inv, keep.length, j, i)
      val est = acc.phi(0, u) / acc.count
      assert(math.abs(est - ex) < math.max(0.12 * math.abs(ex), 0.35), s"u=$u est=$est exact=$ex")
    }
  }

  test("multiple source rows are estimated independently and correctly") {
    val g = karate
    val s = Set(0, 33)
    val w0 = Array.fill(g.n)(1.0)
    val w1 = Array.tabulate(g.n)(u => if (u % 2 == 0) 1.0 else -1.0)
    val ctx = ForestContext(g, s, Array(w0, w1), wantDiag = false)
    val acc = foldMany(ctx, 30000, seed = 11)
    val (keep, inv) = exactInv(g, s)
    for (j <- 0 until 2; (u, i) <- keep.zipWithIndex.take(10)) {
      val w = if (j == 0) w0 else w1
      var ex = 0.0
      for ((v, vi) <- keep.zipWithIndex) ex += w(v) * Dense.get(inv, keep.length, vi, i)
      val est = acc.phi(j, u) / acc.count
      assert(math.abs(est - ex) < math.max(0.12 * math.abs(ex), 0.5), s"row $j u=$u")
    }
  }

  test("source rows are grounded at the roots by ForestContext") {
    val g = karate
    val ctx = ForestContext(g, Set(3, 4), Array(Array.fill(g.n)(1.0)), wantDiag = false)
    assert(ctx.sources(0)(3) == 0.0 && ctx.sources(0)(4) == 0.0)
    assert(ctx.sources(0)(5) == 1.0)
  }

  test("rooted-at-t counts sum to the forest count for every U node") {
    val g = karate
    val s = Set(13)
    val t = Array(0, 33)
    val ctx = ForestContext(g, s ++ t, Array(Array.fill(g.n)(1.0)), wantDiag = false, t)
    val acc = foldMany(ctx, 2000, seed = 12)
    // every non-root is rooted somewhere; at t only if its tree root is in T
    for (u <- 0 until g.n if !ctx.isRoot(u)) {
      val cnt = (0 until 2).map(j => acc.rootCnt(u * 2 + j)).sum
      assert(cnt <= acc.count)
    }
    // a neighbor of 33 should frequently root at 33
    val nb = g.neighbor(33, 0)
    if (!ctx.isRoot(nb)) {
      val c33 = acc.rootCnt(nb * 2 + 1)
      assert(c33 > 0.2 * acc.count, s"neighbor $nb roots at 33 only $c33/${acc.count}")
    }
  }

  test("estimator variance shrinks with sample count (diag, karate)") {
    val g = karate
    val s = Set(0)
    val ctx = ForestContext(g, s, Array(Array.fill(g.n)(1.0)), wantDiag = true)
    val (keep, inv) = exactInv(g, s)
    def err(forests: Int, seed: Long): Double = {
      val acc = foldMany(ctx, forests, seed)
      keep.zipWithIndex.map { case (u, i) =>
        math.abs(acc.diagSum(u) / acc.count - Dense.get(inv, keep.length, i, i))
      }.max
    }
    val eSmall = (0 until 3).map(i => err(200, 100 + i)).min
    val eLarge = (0 until 3).map(i => err(20000, 200 + i)).max
    assert(eLarge < eSmall + 0.25, s"small=$eSmall large=$eLarge") // no divergence
    assert(eLarge < 0.15, s"large-sample error $eLarge")
  }
}
