package repro.forest

import org.apache.spark.serializer.KryoSerializer
import repro.SparkSpec
import repro.core.SchurCfcm
import repro.graph.{CsrGraph, GraphGen, GraphOps}
import repro.linalg.Jl

/** `ForestStats.fold` against a plain reference fold, bit for bit, and the
  * wire form (`ForestAcc.pack` / `ForestAcc.add`) a sampling task ships its
  * sums in.
  */
class ForestStatsSpec extends SparkSpec {

  private lazy val grid = CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 32, 32))
  private lazy val ba = GraphOps.largestComponent(GraphGen.barabasiAlbert(spark, 2000, 3, 2000))

  /** The grid with S = {0, 1023}, T = {400, 600, 135} and 3 JL rows. */
  private def gridCtx(wantDiag: Boolean): ForestContext = {
    val t = Array(400, 600, 135)
    ForestContext(grid, Set(0, 1023) ++ t, Jl.materialize(17, 3, grid.n), wantDiag, t)
  }

  /** BA n = 2,000 rooted at `selectT` and the highest-degree node outside
    * it, with 4 JL rows (ε = 0.5).
    */
  private def baCtx(wantDiag: Boolean): ForestContext = {
    val t = SchurCfcm.selectT(ba)
    val s = (0 until ba.n).filterNot(t.contains).maxBy(ba.degree)
    ForestContext(ba, Set(s) ++ t, Jl.materialize(23, Jl.width(0.5), ba.n), wantDiag, t)
  }

  private def newAcc(ctx: ForestContext) = new ForestAcc(ctx.nsrc, ctx.n, ctx.wantDiag, ctx.numT)

  /** Forest i of base seed `seed`, seeded as `ForestSampler.run` seeds it. */
  private def forest(ctx: ForestContext, seed: Long, i: Long): Wilson.Forest =
    Wilson.sample(ctx.g, ctx.isRoot, ctx.numRoots, new java.util.SplittableRandom(seed * 0x9e3779b97f4a7c15L + i))

  private def foldRange(ctx: ForestContext, seed: Long, from: Long, until: Long): ForestAcc = {
    val acc = newAcc(ctx)
    val scr = new ForestScratch(ctx)
    for (i <- from until until) ForestStats.fold(ctx, forest(ctx, seed, i), acc, scr)
    acc
  }

  /** One forest's sums the plain way: ancestors by walking π, source rows
    * j-major, roots counted in `L_DFS` order.
    */
  private def naiveFold(ctx: ForestContext, f: Wilson.Forest, acc: ForestAcc): Unit = {
    val n = ctx.n
    val parent = f.parent
    acc.count += 1
    def inSubtree(u: Int, a: Int): Boolean = {
      var x = u
      while (x != -1 && x != a) x = parent(x)
      x == a
    }
    val subW = ctx.sources.map(_.clone())
    for (j <- 0 until ctx.nsrc; u <- f.order) {
      val p = parent(u)
      if (!ctx.isRoot(p)) subW(j)(p) += subW(j)(u)
    }
    if (ctx.wantDiag) for (u <- 0 until n if !ctx.isRoot(u)) {
      var d = 0
      var a = u
      while (!ctx.isRoot(a)) {
        val b = ctx.bfsParent(a)
        if (parent(a) == b && inSubtree(u, a)) d += 1
        if (!ctx.isRoot(b) && parent(b) == a && inSubtree(u, b)) d -= 1
        a = b
      }
      acc.diagSum(u) += d
    }
    for (j <- 0 until ctx.nsrc) {
      val phi = new Array[Double](n)
      for (u <- ctx.bfsOrder if !ctx.isRoot(u)) {
        val b = ctx.bfsParent(u)
        var t = if (ctx.isRoot(b)) 0.0 else phi(b)
        if (parent(u) == b) t += subW(j)(u)
        if (!ctx.isRoot(b) && parent(b) == u) t -= subW(j)(b)
        phi(u) = t
        acc.phiSum(j * n + u) += t
      }
    }
    if (ctx.wantRoots) for (u <- f.order) {
      var r = u
      while (!ctx.isRoot(r)) r = parent(r)
      val ti = ctx.tIndex(r)
      if (ti >= 0) acc.rootCnt(u * ctx.numT + ti) += 1
    }
  }

  private def assertSame(a: ForestAcc, b: ForestAcc, what: String): Unit = {
    assert(a.count == b.count, what)
    assert(java.util.Arrays.equals(a.phiSum, b.phiSum), s"$what: phiSum")
    assert(java.util.Arrays.equals(a.diagSum, b.diagSum), s"$what: diagSum")
    assert(java.util.Arrays.equals(a.rootCnt, b.rootCnt), s"$what: rootCnt")
  }

  for ((name, mk, forests) <- Seq(("grid 32×32, S ∪ T roots, w = 3", gridCtx _, 20),
                                  ("BA n = 2,000, selectT roots, w = 4", baCtx _, 10));
       wantDiag <- Seq(true, false)) {
    test(s"fold equals the reference fold bit for bit: $name, wantDiag = $wantDiag") {
      val ctx = mk(wantDiag)
      val ref = newAcc(ctx)
      for (i <- 0 until forests) naiveFold(ctx, forest(ctx, 3, i), ref)
      val acc = foldRange(ctx, 3, 0, forests)
      assert(ref.rootCnt.exists(_ > 0) && ref.phiSum.exists(_ != 0.0))
      assert(wantDiag == ref.diagSum.exists(_ != 0.0))
      assertSame(acc, ref, name)
    }
  }

  test("pack, Kryo and add reproduce the accumulator exactly, with and without T") {
    val kryo = new KryoSerializer(spark.sparkContext.getConf).newInstance()
    // S = the grid's first row, T = the far corner: most forests root the
    // second row at S
    val farT = ForestContext(grid, (0 until 32).toSet + 1023, Jl.materialize(17, 3, grid.n),
                             wantDiag = true, Array(1023))
    val cases = Seq(
      "numT = 0" -> ForestContext(grid, Set(0, 1023), Jl.materialize(17, 3, grid.n), wantDiag = true),
      "numT = 0, no diagonal" -> ForestContext(grid, Set(5), Jl.materialize(17, 2, grid.n), wantDiag = false),
      "numT = 3" -> gridCtx(wantDiag = true),
      "numT = 1" -> farT)
    for ((name, ctx) <- cases) {
      val acc = foldRange(ctx, 5, 0, 8)
      val p = acc.pack
      assert(p.rowEnd.length == (if (ctx.numT > 0) ctx.n else 0), name)
      assert(p.rootT.length == acc.rootCnt.count(_ != 0), name)
      for (u <- p.rowEnd.indices) {
        val ts = ((if (u == 0) 0 else p.rowEnd(u - 1)) until p.rowEnd(u)).map(p.rootT(_))
        assert(ts == ts.sorted.distinct, s"$name: row $u is not ascending")
      }
      assertSame(newAcc(ctx).add(p), acc, name)
      assertSame(newAcc(ctx).add(kryo.deserialize[ForestPartial](kryo.serialize(p))), acc, s"$name, through Kryo")
    }
    val acc = foldRange(farT, 5, 0, 8)
    val rowSums = (0 until farT.n).filterNot(farT.isRoot).map(u => acc.rootCnt(u))
    assert(rowSums.contains(0) && rowSums.exists(_ > 0), "want rows with and without a T-rooted forest")
  }

  test("sampling on a Schur context equals local folds of the same forests, added in slice order") {
    val ctx = baCtx(wantDiag = true)
    val forests = 96L
    val seed = 13L
    val slices = math.min(spark.sparkContext.defaultParallelism.toLong, forests).toInt
    val viaSpark = ForestSampler.run(spark, ctx, forests, seed)
    // the slicing of sc.range(0, forests, 1, slices), each slice dense-added
    // into a zero accumulator in slice order
    val local = newAcc(ctx)
    for (i <- 0 until slices) {
      val a = foldRange(ctx, seed, i * forests / slices, (i + 1) * forests / slices)
      local.count += a.count
      for (x <- local.phiSum.indices) local.phiSum(x) += a.phiSum(x)
      for (x <- local.diagSum.indices) local.diagSum(x) += a.diagSum(x)
      for (x <- local.rootCnt.indices) local.rootCnt(x) += a.rootCnt(x)
    }
    assertSame(viaSpark, local, "ForestSampler.run vs local folds")
  }

  test("a task's Kryo-serialized partial is under half the dense accumulator (BA n = 2,000)") {
    val ctx = baCtx(wantDiag = true)
    val acc = foldRange(ctx, 7, 0, 16) // forests per task on schur-ba17k
    val kryo = new KryoSerializer(spark.sparkContext.getConf).newInstance()
    val packed = kryo.serialize(acc.pack).remaining()
    val dense = kryo.serialize(acc).remaining()
    assert(packed < dense / 2, s"packed $packed B, dense $dense B (|T| = ${ctx.numT})")
  }

  test("a Kryo-serialized partial without T carries only the φ and diagonal sums") {
    val ctx = ForestContext(grid, Set(0, 1023), Jl.materialize(17, 3, grid.n), wantDiag = true)
    val acc = foldRange(ctx, 5, 0, 8)
    val kryo = new KryoSerializer(spark.sparkContext.getConf).newInstance()
    val bytes = kryo.serialize(acc.pack).remaining()
    // the nsrc·n + n doubles, plus 64 bytes for the count, lengths and class tag
    val bound = 8 * (ctx.nsrc * ctx.n + ctx.n) + 64
    assert(bytes < bound, s"$bytes B, bound $bound B")
  }
}
