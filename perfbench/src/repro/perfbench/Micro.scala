package repro.perfbench

import repro.forest.{ForestAcc, ForestContext, ForestScratch, ForestStats, Wilson}
import repro.graph.CsrGraph
import repro.linalg.{Cg, Jl}

/** Single-thread timings of the layers a Spark task runs, on a workload's own
  * graph and root set. Each figure is the median over batches; sizes are
  * computed from array lengths, not measured traffic.
  */
object Micro {

  private def medianMsPerItem(batches: Int, itemsPerBatch: Int)(item: Int => Unit): Double = {
    val perItem = (0 until batches).map { _ =>
      val t0 = System.nanoTime()
      var i = 0
      while (i < itemsPerBatch) { item(i); i += 1 }
      (System.nanoTime() - t0) / 1e6 / itemsPerBatch
    }
    Stats.median(perItem)
  }

  /** Items per batch so that one batch lasts about `targetMs`, from a timed
    * warm-up of `warm` items.
    */
  private def calibrate(warm: Int, targetMs: Double)(item: Int => Unit): Int = {
    val t0 = System.nanoTime()
    (0 until warm).foreach(item)
    val ms = (System.nanoTime() - t0) / 1e6 / warm
    math.max(1, math.min(10000, math.ceil(targetMs / math.max(ms, 1e-3)).toInt))
  }

  final case class ForestLayers(wilsonMs: Double, foldMs: Double, foldMb: Double,
                                mergeMs: Double, accMb: Double)

  /** Wilson sampling, the per-forest fold and one accumulator merge for the
    * root set `roots` (T-part `tList` for SCHURDELTA) and `w` JL source rows.
    */
  def forestLayers(g: CsrGraph, roots: Set[Int], tList: Array[Int], w: Int, seed: Long): ForestLayers = {
    val sources = Array.tabulate(w)(j => Array.tabulate(g.n)(v => Jl.entry(seed, j, v, w)))
    val ctx = ForestContext(g, roots, sources, wantDiag = true, tList)
    val rng = new java.util.SplittableRandom(seed)
    def sample(): Wilson.Forest = Wilson.sample(g, ctx.isRoot, ctx.numRoots, rng)

    val wilsonBatch = calibrate(5, 100.0)(_ => sample())
    val wilsonMs = medianMsPerItem(5, wilsonBatch)(_ => sample())

    val forests = Array.fill(16)(sample())
    val acc = new ForestAcc(ctx.nsrc, ctx.n, ctx.wantDiag, ctx.numT)
    val scr = new ForestScratch(ctx)
    def fold(i: Int): Unit = ForestStats.fold(ctx, forests(i % forests.length), acc, scr)
    val foldBatch = calibrate(5, 100.0)(fold)
    val foldMs = medianMsPerItem(5, foldBatch)(fold)

    val other = new ForestAcc(ctx.nsrc, ctx.n, ctx.wantDiag, ctx.numT)
    val mergeBatch = calibrate(3, 100.0)(_ => other.merge(acc))
    val mergeMs = medianMsPerItem(5, mergeBatch)(_ => other.merge(acc))

    ForestLayers(wilsonMs, foldMs, foldBytes(ctx) / 1e6, mergeMs, accBytes(acc) / 1e6)
  }

  /** Bytes of the arrays one fold reads or writes, each counted once: the
    * four nsrc×n double arrays (sources, subtree sums, voltages, their sum),
    * ten n-long int arrays' worth (forest parent and order, Euler tour in and
    * out, child heads and links, the 2n DFS stack, BFS parent and order), the
    * root flags, the diagonal sums, and for SCHURDELTA one touched rooted
    * count per node plus the T index and root-of arrays.
    */
  def foldBytes(ctx: ForestContext): Double = {
    val n = ctx.n.toDouble
    val rows = 4.0 * ctx.nsrc * n * 8
    val ints = 10.0 * n * 4
    val diag = if (ctx.wantDiag) 2.0 * n * 8 else 0.0
    val schur = if (ctx.wantRoots) 3.0 * n * 4 else 0.0
    rows + ints + n + diag + schur
  }

  def accBytes(a: ForestAcc): Double =
    8.0 * (a.phiSum.length + a.diagSum.length + a.diagSqSum.length) + 4.0 * a.rootCnt.length

  final case class CgLayer(itersPerSolve: Double, msPerSolve: Double)

  /** Timed solves per kind of right-hand side. */
  private val CgSolvesPerKind = 4

  /** CG solves of `L_{-S} x = b` at APPROXGREEDY's tolerance for the two kinds
    * of right-hand side it builds: projected incidence rows and plain JL rows.
    */
  def cg(g: CsrGraph, s: Set[Int], w: Int, seed: Long): CgLayer = {
    val edges = g.edgeList
    def rhs(j: Int, incidence: Boolean): Array[Double] = {
      val b = new Array[Double](g.n)
      if (incidence) {
        var e = 0
        while (e < edges.length) {
          val (a, c) = edges(e); val q = Jl.entry(seed, j, e, w)
          if (!s.contains(a)) b(a) += q
          if (!s.contains(c)) b(c) -= q
          e += 1
        }
      } else (0 until g.n).foreach(v => if (!s.contains(v)) b(v) = Jl.entry(seed, j, v, w))
      b
    }
    val bs = (0 until CgSolvesPerKind).flatMap(j => Seq(rhs(j, incidence = true), rhs(j, incidence = false)))
    Cg.solve(g, s, bs.head, 1e-6) // warm-up
    val runs = bs.map { b =>
      val t0 = System.nanoTime()
      val (_, iters) = Cg.solve(g, s, b, 1e-6)
      (iters, (System.nanoTime() - t0) / 1e6)
    }
    CgLayer(runs.map(_._1.toDouble).sum / runs.length, Stats.median(runs.map(_._2)))
  }
}
