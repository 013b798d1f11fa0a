package repro.forest

import org.apache.spark.serializer.KryoSerializer
import repro.SparkSpec
import repro.core.SchurCfcm
import repro.graph.{CsrGraph, GraphGen, GraphOps}
import repro.linalg.Jl

/** `ForestStats.fold` against a plain reference fold, bit for bit; its
  * integrated current sums against plain per-forest voltage sums; and the
  * Kryo form of `ForestAcc` a sampling task ships its sums in.
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

  /** Subtree sums of every source row over forest f, j-major. */
  private def subtreeSums(ctx: ForestContext, f: Wilson.Forest): Array[Array[Double]] = {
    val subW = ctx.sources.map(_.clone())
    for (j <- 0 until ctx.nsrc; u <- f.order) {
      val p = f.parent(u)
      if (!ctx.isRoot(p)) subW(j)(p) += subW(j)(u)
    }
    subW
  }

  /** The current of source row j on the BFS edge from u to its BFS parent b. */
  private def current(ctx: ForestContext, f: Wilson.Forest, subW: Array[Array[Double]], j: Int, u: Int): Double = {
    val b = ctx.bfsParent(u)
    if (f.parent(u) == b) subW(j)(u)
    else if (!ctx.isRoot(b) && f.parent(b) == u) -subW(j)(b)
    else 0.0
  }

  /** One forest's diagonal estimates by the plain BFS-path walk: every edge
    * of u's path to its root, ancestors found by walking π.
    */
  private def pathWalkDiag(ctx: ForestContext, f: Wilson.Forest): Array[Int] = {
    val parent = f.parent
    def inSubtree(u: Int, a: Int): Boolean = {
      var x = u
      while (x != -1 && x != a) x = parent(x)
      x == a
    }
    Array.tabulate(ctx.n) { u =>
      var d = 0
      var a = u
      while (!ctx.isRoot(a)) {
        val b = ctx.bfsParent(a)
        if (parent(a) == b && inSubtree(u, a)) d += 1
        if (!ctx.isRoot(b) && parent(b) == a && inSubtree(u, b)) d -= 1
        a = b
      }
      d
    }
  }

  /** One forest's sums the plain way: currents node by node, the diagonal by
    * [[pathWalkDiag]], roots counted in `L_DFS` order.
    */
  private def naiveFold(ctx: ForestContext, f: Wilson.Forest, acc: ForestAcc): Unit = {
    acc.count += 1
    val subW = subtreeSums(ctx, f)
    if (ctx.wantDiag) {
      val d = pathWalkDiag(ctx, f)
      for (u <- 0 until ctx.n if !ctx.isRoot(u)) acc.diagSum(u) += d(u)
    }
    for (j <- 0 until ctx.nsrc; u <- 0 until ctx.n if !ctx.isRoot(u))
      acc.phiSum(u * ctx.nsrc + j) += current(ctx, f, subW, j, u)
    if (ctx.wantRoots) for (u <- f.order) {
      var r = u
      while (!ctx.isRoot(r)) r = f.parent(r)
      val ti = ctx.tIndex(r)
      if (ti >= 0) acc.rootCnt(u * ctx.numT + ti) += 1
    }
  }

  /** Σ_forests φ_j(u), flat node-major, the plain way: each forest's
    * voltages integrated along the BFS tree, then added to the sums.
    */
  private def naiveVoltageSums(ctx: ForestContext, seed: Long, forests: Int): Array[Double] = {
    val sums = new Array[Double](ctx.nsrc * ctx.n)
    for (i <- 0 until forests) {
      val f = forest(ctx, seed, i)
      val subW = subtreeSums(ctx, f)
      for (j <- 0 until ctx.nsrc) {
        val phi = new Array[Double](ctx.n)
        for (u <- ctx.bfsOrder if !ctx.isRoot(u)) {
          val b = ctx.bfsParent(u)
          phi(u) = (if (ctx.isRoot(b)) 0.0 else phi(b)) + current(ctx, f, subW, j, u)
          sums(u * ctx.nsrc + j) += phi(u)
        }
      }
    }
    sums
  }

  /** Entrywise `|a − b| ≤ tol·max|b|`. */
  private def assertClose(a: Array[Double], b: Array[Double], tol: Double, what: String): Unit = {
    val scale = b.map(math.abs).max
    val worst = a.indices.map(i => math.abs(a(i) - b(i))).max
    assert(worst <= tol * scale, s"$what: max |Δ| = $worst, bound ${tol * scale}")
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

  /** Contexts with dyadic sources, whose sums add exactly in any order: the
    * all-ones row on the grid, and ±1/2 JL rows (w = 4) on BA.
    */
  private def dyadicCtxs: Seq[(String, ForestContext)] = Seq(
    "grid, all-ones, numT = 0" ->
      ForestContext(grid, Set(0, 1023), Array(Array.fill(grid.n)(1.0)), wantDiag = true),
    "BA, w = 4, numT = |selectT|" -> baCtx(wantDiag = true))

  test("integrated current sums equal per-forest voltage sums: bit for bit on dyadic sources, 1e-12 at w = 3") {
    for ((name, ctx) <- dyadicCtxs) {
      val acc = foldRange(ctx, 9, 0, 12).integrate(ctx)
      val ref = naiveVoltageSums(ctx, 9, 12)
      assert(ref.exists(_ != 0.0), name)
      assert(java.util.Arrays.equals(acc.phiSum, ref), s"$name: φ sums")
      for (u <- 0 until ctx.n; j <- 0 until ctx.nsrc)
        assert(acc.phi(j, u) == ref(u * ctx.nsrc + j), s"$name: phi($j, $u)")
    }
    // ±1/√3 entries: integrating the sums adds the same terms in another order
    for ((name, ctx) <- Seq("grid, w = 3, numT = 3" -> gridCtx(wantDiag = true),
                            "grid, w = 3, numT = 0" ->
                              ForestContext(grid, Set(0, 1023), Jl.materialize(17, 3, grid.n), wantDiag = false))) {
      val acc = foldRange(ctx, 9, 0, 12).integrate(ctx)
      assertClose(acc.phiSum, naiveVoltageSums(ctx, 9, 12), 1e-12, name)
    }
  }

  test("φ is read only after integrate, which runs once and only on current sums") {
    val ctx = gridCtx(wantDiag = true)
    val acc = foldRange(ctx, 9, 0, 2)
    intercept[IllegalStateException](acc.phi(0, 5))
    acc.integrate(ctx)
    intercept[IllegalArgumentException](acc.integrate(ctx))
    intercept[IllegalArgumentException](acc.merge(foldRange(ctx, 9, 2, 4)))
    val kryo = new KryoSerializer(spark.sparkContext.getConf).newInstance()
    intercept[IllegalArgumentException](kryo.serialize(foldRange(ctx, 9, 2, 4).integrate(ctx)))
  }

  test("the diagonal by BFS parent equals the plain path walk: a path graph, whose one forest gives D = (2, 1)") {
    // u = 0, a = 1, root s = 2: the only forest is the path, and both BFS
    // edges are forward forest edges
    val path = CsrGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    val ctx = ForestContext(path, Set(2), Array(Array.fill(3)(1.0)), wantDiag = true)
    val acc = foldRange(ctx, 1, 0, 5)
    assert(acc.diagSum.toSeq == Seq(10.0, 5.0, 0.0))
    assert(pathWalkDiag(ctx, forest(ctx, 1, 0)).toSeq == Seq(2, 1, 0))
  }

  test("the diagonal by BFS parent equals the plain path walk: forward, reversed and non-forest BFS edges") {
    // BFS from root 0: 1 ← 0, 2 ← 1, 3 ← 1, 4 ← 2. Forest π = (−, 0, 4, 1, 3):
    // 1 → 0 and 3 → 1 are forward BFS edges, 2 → 4 reverses 4's BFS edge,
    // and 2's BFS edge is not a forest edge, so D(2) walks up to 1 → 0
    val g = CsrGraph.fromEdges(5, Seq((0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4)))
    val ctx = ForestContext(g, Set(0), Array(Array.fill(5)(1.0)), wantDiag = true)
    assert(ctx.bfsParent.toSeq == Seq(-1, 0, 1, 1, 2))
    val f = Wilson.Forest(Array(-1, 0, 4, 1, 3), Array(2, 4, 3, 1))
    val acc = newAcc(ctx)
    val scr = new ForestScratch(ctx)
    ForestStats.fold(ctx, f, acc, scr)
    assert(pathWalkDiag(ctx, f).toSeq == Seq(0, 1, 1, 2, 1))
    assert(acc.diagSum.toSeq == Seq(0.0, 1.0, 1.0, 2.0, 1.0))
    // the same forest again through the same scratch: no state carries over
    ForestStats.fold(ctx, f, acc, scr)
    assert(acc.diagSum.toSeq == Seq(0.0, 2.0, 2.0, 4.0, 2.0))
  }

  test("sums do not depend on the partition: one slice or four, merged and integrated") {
    val forests = 24
    def sliced(ctx: ForestContext, parts: Int): ForestAcc =
      (0 until parts).map(i => foldRange(ctx, 21, i * forests / parts, (i + 1) * forests / parts))
        .foldLeft(newAcc(ctx))(_ merge _).integrate(ctx)
    for ((name, ctx) <- dyadicCtxs :+ ("grid, w = 3, numT = 3" -> gridCtx(wantDiag = true))) {
      val one = sliced(ctx, 1)
      val four = sliced(ctx, 4)
      assert(one.count == forests && four.count == forests, name)
      assert(java.util.Arrays.equals(one.diagSum, four.diagSum), s"$name: diagSum")
      assert(java.util.Arrays.equals(one.rootCnt, four.rootCnt), s"$name: rootCnt")
      if (ctx.nsrc == 3) assertClose(four.phiSum, one.phiSum, 1e-12, name)
      else assert(java.util.Arrays.equals(one.phiSum, four.phiSum), s"$name: φ sums")
    }
  }

  test("merge and a Kryo round trip reproduce the accumulator exactly, with and without T") {
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
      val back = kryo.deserialize[ForestAcc](kryo.serialize(acc))
      assert(back.rowBuf.length == (if (ctx.numT > 0) acc.count * ctx.n else 0), name)
      assert(back.rowBuf.forall(t => t >= -1 && t < ctx.numT), s"$name: a root row entry outside [-1, |T|)")
      assertSame(newAcc(ctx).merge(acc), acc, name)
      assertSame(newAcc(ctx).merge(back), acc, s"$name, through Kryo")
      // acc's rows are now counted into its dense counts: merge reads those
      assertSame(newAcc(ctx).merge(acc), acc, s"$name, rows counted")
      if (ctx.numT > 0) {
        val e = intercept[IllegalArgumentException](kryo.serialize(newAcc(ctx).merge(acc)))
        assert(e.getMessage.contains("merged accumulator"), s"$name: ${e.getMessage}")
      }
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
    assertSame(viaSpark, local.integrate(ctx), "ForestSampler.run vs local folds")
  }

  test("a 16-forest Schur partial on the schur-ba17k graph is under 1 MiB") {
    // Spark's spark.task.maxDirectResultSize: a larger task result takes the
    // block manager's second round trip
    // the benchmark's schur-ba17k graph and ε; roots selectT and the
    // highest-degree node outside it
    val g = GraphOps.largestComponent(GraphGen.barabasiAlbert(spark, 16848, 5, 16848))
    val t = SchurCfcm.selectT(g)
    val s = (0 until g.n).filterNot(t.contains).maxBy(g.degree)
    val ctx = ForestContext(g, Set(s) ++ t, Jl.materialize(29, Jl.width(0.5), g.n), wantDiag = true, t)
    val acc = foldRange(ctx, 7, 0, 16) // forests per task on schur-ba17k
    val kryo = new KryoSerializer(spark.sparkContext.getConf).newInstance()
    val bytes = kryo.serialize(acc).remaining()
    assert(bytes < (1 << 20), s"$bytes B (n = ${g.n}, |T| = ${ctx.numT}, nsrc = ${ctx.nsrc})")
  }

  test("a fold-only Schur accumulator holds no n×|T| array") {
    val ctx = baCtx(wantDiag = true)
    val acc = foldRange(ctx, 7, 0, 16)
    def intArrays(o: AnyRef): Seq[Array[Int]] =
      o.getClass.getDeclaredFields.toSeq.flatMap { f =>
        f.setAccessible(true)
        f.get(o) match { case a: Array[Int] => Some(a); case _ => None }
      }
    val dense = ctx.n * ctx.numT
    assert(intArrays(acc).forall(_.length < dense), s"an int array of n·|T| = $dense entries after folding")
    val kryo = new KryoSerializer(spark.sparkContext.getConf).newInstance()
    assert(kryo.deserialize[ForestAcc](kryo.serialize(acc)).rowBuf.length == 16 * ctx.n)
    // the dense view appears on the first read, and counts the rows
    val ref = newAcc(ctx)
    for (i <- 0 until 16) naiveFold(ctx, forest(ctx, 7, i), ref)
    assert(java.util.Arrays.equals(acc.rootCnt, ref.rootCnt))
    assert(intArrays(acc).exists(_.length == dense))
  }

  test("a Kryo-serialized partial without T carries only the φ and diagonal sums") {
    val ctx = ForestContext(grid, Set(0, 1023), Jl.materialize(17, 3, grid.n), wantDiag = true)
    val acc = foldRange(ctx, 5, 0, 8)
    val kryo = new KryoSerializer(spark.sparkContext.getConf).newInstance()
    val bytes = kryo.serialize(acc).remaining()
    // the nsrc·n + n doubles, plus 64 bytes for the shape, count and class tag
    val bound = 8 * (ctx.nsrc * ctx.n + ctx.n) + 64
    assert(bytes < bound, s"$bytes B, bound $bound B")
  }
}
