package repro.forest

import repro.graph.{CsrGraph, GraphOps}

/** Immutable per-sampling-phase configuration, broadcast to Spark tasks.
  *
  * Holds everything a task needs to fold one sampled forest into the running
  * estimator sums: the graph, the root set, the fixed BFS integration tree
  * (Lemma 3.3 voltages are path integrals of estimated edge currents along a
  * *fixed* path — we use the BFS tree from the root set), the source weight
  * rows (JL rows / the all-ones vector), and the auxiliary root list T for
  * the Schur variant.
  *
  * @param g         graph
  * @param isRoot    root-set membership (S, or S ∪ T for SCHURDELTA)
  * @param numRoots  number of roots
  * @param bfsParent BFS-tree parent (-1 at roots)
  * @param bfsOrder  nodes in BFS order from the root set
  * @param sources   `nsrc` weight rows over all n nodes (zero at roots);
  *                  row j yields the estimator of `w_jᵀ L_{-S}^{-1} e_u`
  * @param wantDiag  estimate the diagonal `(L_{-S}^{-1})_{uu}` too
  * @param tIndex    node → index in T (-1 if not in T); empty array disables
  *                  rooted-at-t counting (non-Schur phases)
  * @param numT      |T|
  */
final class ForestContext(
    val g: CsrGraph,
    val isRoot: Array[Boolean],
    val numRoots: Int,
    val bfsParent: Array[Int],
    val bfsOrder: Array[Int],
    val sources: Array[Array[Double]],
    val wantDiag: Boolean,
    val tIndex: Array[Int],
    val numT: Int,
) extends Serializable {
  def n: Int = g.n
  def nsrc: Int = sources.length
  def wantRoots: Boolean = numT > 0
}

object ForestContext {

  /** Build a context for root set `roots` on graph `g`. Every node needs a
    * neighbor: a random walk from an isolated node has nowhere to go.
    */
  def apply(g: CsrGraph, roots: Set[Int], sources: Array[Array[Double]],
            wantDiag: Boolean, tList: Array[Int] = Array.empty): ForestContext = {
    val isolated = (0 until g.n).find(g.degree(_) == 0)
    require(isolated.isEmpty,
      s"node ${isolated.get} of ${g.n} has degree 0: node ids must be dense (0 until n, no gaps); " +
      "GraphOps.largestComponent relabels an edge list that way")
    val isRoot = new Array[Boolean](g.n)
    roots.foreach(isRoot(_) = true)
    val (order, parent) = GraphOps.bfsTree(g, roots.toSeq.sorted)
    val tIndex = Array.fill(g.n)(-1)
    tList.zipWithIndex.foreach { case (t, i) => tIndex(t) = i }
    // Source rows must be grounded at the roots: the estimators treat root
    // voltages as 0 and root nodes carry no source weight.
    val grounded = sources.map { row =>
      val r = row.clone()
      roots.foreach(r(_) = 0.0)
      r
    }
    new ForestContext(g, isRoot, roots.size, parent, order, grounded, wantDiag, tIndex, tList.length)
  }
}

/** Mutable estimator sums over a stream of sampled forests.
  *
  * Per forest, [[fold]] adds:
  *  - `φ_j(u)`: the Lemma 3.3 voltage estimate for source row j — computed by
  *    subtree-summing `w_j` over the forest (one pass over `L_DFS`) and
  *    integrating the per-edge current estimates along the BFS path;
  *  - `D(u)`: the diagonal estimate `Φ̄_{u,S}(u)` — BFS-path integration of
  *    `1{π_a = b ∧ u ∈ subtree(a)} − 1{π_b = a ∧ u ∈ subtree(b)}` with O(1)
  *    Euler-tour ancestor tests;
  *  - rooted-at-`t` counts `Ñ(ρ_u = t)` for the Schur variant (Lemma 4.2).
  *
  * Squared sums back the empirical-Bernstein stopping rule (Lemma 3.6).
  * Accumulators merge associatively, so each slice of a batch folds locally
  * and the driver merges the partials in slice order.
  */
final class ForestAcc(val nsrc: Int, val n: Int, val wantDiag: Boolean, val numT: Int)
    extends Serializable {
  var count: Long = 0L
  /** Σ_forests φ_j(u), flat nsrc×n. (No squared sums here: the adaptive stop
    * uses the diagonal's Bernstein bound only — see ForestCfcm.diagConverged —
    * and shipping a second nsrc×n array per partition per batch doubles the
    * dominant serialization cost.)
    */
  val phiSum: Array[Double] = new Array[Double](nsrc * n)
  /** Σ_forests D(u). */
  val diagSum: Array[Double] = if (wantDiag) new Array[Double](n) else Array.emptyDoubleArray
  /** Σ_forests D(u)². */
  val diagSqSum: Array[Double] = if (wantDiag) new Array[Double](n) else Array.emptyDoubleArray
  /** Ñ(ρ_u = t), flat n×numT. */
  val rootCnt: Array[Int] = if (numT > 0) new Array[Int](n * numT) else Array.emptyIntArray

  def merge(o: ForestAcc): ForestAcc = {
    require(o.nsrc == nsrc && o.n == n)
    count += o.count
    var i = 0
    while (i < phiSum.length) { phiSum(i) += o.phiSum(i); i += 1 }
    if (wantDiag) {
      i = 0
      while (i < n) { diagSum(i) += o.diagSum(i); diagSqSum(i) += o.diagSqSum(i); i += 1 }
    }
    i = 0
    while (i < rootCnt.length) { rootCnt(i) += o.rootCnt(i); i += 1 }
    this
  }
}

/** Reusable per-task scratch space (avoids reallocating O(n) arrays per
  * forest inside a partition).
  */
final class ForestScratch(ctx: ForestContext) {
  val n: Int = ctx.n
  val subW: Array[Double] = new Array[Double](ctx.nsrc * n)
  val phi: Array[Double] = new Array[Double](ctx.nsrc * n)
  val tin: Array[Int] = new Array[Int](n)
  val tout: Array[Int] = new Array[Int](n)
  val childHead: Array[Int] = new Array[Int](n)
  val childNext: Array[Int] = new Array[Int](n)
  val stack: Array[Int] = new Array[Int](2 * n + 2) // node + exit-marker entries
  val rootOf: Array[Int] = new Array[Int](n)
}

object ForestStats {

  /** Fold one forest into `acc`. */
  def fold(ctx: ForestContext, f: Wilson.Forest, acc: ForestAcc, scr: ForestScratch): Unit = {
    val n = ctx.n
    val nsrc = ctx.nsrc
    val parent = f.parent
    val order = f.order
    acc.count += 1

    // --- subtree sums of each source row (children precede parents in order)
    val subW = scr.subW
    var j = 0
    while (j < nsrc) {
      val row = ctx.sources(j)
      val off = j * n
      var u = 0
      while (u < n) { subW(off + u) = row(u); u += 1 }
      var k = 0
      while (k < order.length) {
        val u2 = order(k)
        val p = parent(u2)
        if (!ctx.isRoot(p)) subW(off + p) += subW(off + u2)
        k += 1
      }
      j += 1
    }

    // --- Euler tour (tin/tout) for O(1) "is a an ancestor of u" tests
    if (ctx.wantDiag) {
      val childHead = scr.childHead; val childNext = scr.childNext
      java.util.Arrays.fill(childHead, -1)
      var k = 0
      while (k < order.length) { // children lists (order within list irrelevant)
        val u = order(k); val p = parent(u)
        childNext(u) = childHead(p); childHead(p) = u
        k += 1
      }
      val tin = scr.tin; val tout = scr.tout; val stack = scr.stack
      var timer = 0
      var r = 0
      while (r < n) {
        if (ctx.isRoot(r)) {
          // iterative DFS; a negative stack entry -x-1 is node x's exit marker
          var top = 0
          stack(top) = r
          while (top >= 0) {
            val x = stack(top)
            if (x >= 0) {
              tin(x) = timer; timer += 1
              stack(top) = -x - 1
              var c = childHead(x)
              while (c != -1) { top += 1; stack(top) = c; c = childNext(c) }
            } else {
              tout(-x - 1) = timer
              top -= 1
            }
          }
        }
        r += 1
      }

      // --- diagonal estimates: walk the BFS path of every non-root node
      val diagSum = acc.diagSum; val diagSqSum = acc.diagSqSum
      var u = 0
      while (u < n) {
        if (!ctx.isRoot(u)) {
          var d = 0
          var a = u
          val tu = tin(u)
          while (a != -1 && !ctx.isRoot(a)) {
            val b = ctx.bfsParent(a)
            // edge (a -> b): +1 if the forest path of u uses it forward,
            // -1 if backward. Forward ⟺ π(a) = b and u ∈ subtree(a).
            if (parent(a) == b && tin(a) <= tu && tu < tout(a)) d += 1
            if (!ctx.isRoot(b) && parent(b) == a && tin(b) <= tu && tu < tout(b)) d -= 1
            a = b
          }
          diagSum(u) += d
          diagSqSum(u) += d.toDouble * d
        }
        u += 1
      }
    }

    // --- voltage estimates per source row: integrate currents down the BFS tree
    val phi = scr.phi
    var k2 = 0
    while (k2 < ctx.bfsOrder.length) {
      val u = ctx.bfsOrder(k2)
      if (!ctx.isRoot(u)) {
        val b = ctx.bfsParent(u)
        val pb = if (ctx.isRoot(b)) -1 else parent(b)
        var j2 = 0
        while (j2 < nsrc) {
          val off = j2 * n
          var t = if (ctx.isRoot(b)) 0.0 else phi(off + b)
          if (parent(u) == b) t += subW(off + u)
          if (pb == u) t -= subW(off + b)
          phi(off + u) = t
          acc.phiSum(off + u) += t
          j2 += 1
        }
      }
      k2 += 1
    }

    // --- rooted-at-t counts for the Schur variant (parents first: reverse order)
    if (ctx.wantRoots) {
      val rootOf = scr.rootOf
      var k3 = order.length - 1
      while (k3 >= 0) {
        val u = order(k3)
        val p = parent(u)
        rootOf(u) = if (ctx.isRoot(p)) p else rootOf(p)
        val ti = ctx.tIndex(rootOf(u))
        if (ti >= 0) acc.rootCnt(u * ctx.numT + ti) += 1
        k3 -= 1
      }
    }
  }
}
