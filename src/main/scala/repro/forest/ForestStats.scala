package repro.forest

import com.esotericsoftware.kryo.{Kryo, KryoSerializable}
import com.esotericsoftware.kryo.io.{Input, Output}
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
  * Per forest, [[ForestStats.fold]] adds:
  *  - `φ_j(u)`: the Lemma 3.3 voltage estimate for source row j — computed by
  *    subtree-summing `w_j` over the forest (one pass over `L_DFS`) and
  *    integrating the per-edge current estimates along the BFS path;
  *  - `D(u)`: the diagonal estimate `Φ̄_{u,S}(u)` — BFS-path integration of
  *    `1{π_a = b ∧ u ∈ subtree(a)} − 1{π_b = a ∧ u ∈ subtree(b)}` with O(1)
  *    preorder-interval ancestor tests;
  *  - rooted-at-`t` counts `Ñ(ρ_u = t)` for the Schur variant (Lemma 4.2).
  *
  * A sampling task ships its sums as a [[ForestPartial]] ([[pack]]); the
  * driver [[add]]s the partials into one accumulator in slice order.
  */
final class ForestAcc(val nsrc: Int, val n: Int, val wantDiag: Boolean, val numT: Int)
    extends Serializable {
  var count: Long = 0L
  /** Σ_forests φ_j(u), flat nsrc×n, j-major (`j·n + u`). */
  val phiSum: Array[Double] = new Array[Double](nsrc * n)
  /** Σ_forests D(u). */
  val diagSum: Array[Double] = if (wantDiag) new Array[Double](n) else Array.emptyDoubleArray
  /** Σ_forests D(u)². No estimator reads it; `perfbench` sizes the
    * accumulator with it (ROADMAP item 3).
    */
  val diagSqSum: Array[Double] = if (wantDiag) new Array[Double](n) else Array.emptyDoubleArray
  /** Ñ(ρ_u = t), flat n×numT. A task of tens of forests leaves at most that
    * many nonzeros in a row, so it ships them as sparse rows ([[pack]]).
    */
  val rootCnt: Array[Int] = if (numT > 0) new Array[Int](n * numT) else Array.emptyIntArray

  /** The wire form of these sums: the dense arrays shared, the root counts
    * as sparse rows.
    */
  def pack: ForestPartial = {
    // Counts are ≥ 0, so (-c) >>> 31 is 1 exactly when c ≠ 0: both passes
    // run without a data-dependent branch per entry.
    val rowEnd = if (numT > 0) new Array[Int](n) else Array.emptyIntArray
    var nnz = 0
    var u = 0
    while (u < rowEnd.length) {
      val off = u * numT
      var t = 0
      while (t < numT) { nnz += (-rootCnt(off + t)) >>> 31; t += 1 }
      rowEnd(u) = nnz
      u += 1
    }
    val rootT = new Array[Int](nnz)
    val rootN = new Array[Int](nnz)
    var q = 0
    u = 0
    while (u < rowEnd.length) {
      // every entry is written at q, which only moves past nonzeros; the row
      // stops at its last nonzero, so q never passes the row's end
      val off = u * numT
      val end = rowEnd(u)
      var t = 0
      while (q < end) {
        val c = rootCnt(off + t)
        rootT(q) = t; rootN(q) = c
        q += (-c) >>> 31
        t += 1
      }
      u += 1
    }
    new ForestPartial(count, phiSum, diagSum, diagSqSum, rowEnd, rootT, rootN)
  }

  /** Add a partial into these sums, entry by entry. */
  def add(p: ForestPartial): ForestAcc = {
    require(p.phiSum.length == phiSum.length && p.diagSum.length == diagSum.length &&
            p.rowEnd.length == (if (numT > 0) n else 0), "partial of another shape")
    count += p.count
    var i = 0
    while (i < phiSum.length) { phiSum(i) += p.phiSum(i); i += 1 }
    i = 0
    while (i < diagSum.length) { diagSum(i) += p.diagSum(i); diagSqSum(i) += p.diagSqSum(i); i += 1 }
    var q = 0
    var u = 0
    while (u < p.rowEnd.length) {
      val off = u * numT
      val end = p.rowEnd(u)
      while (q < end) { rootCnt(off + p.rootT(q)) += p.rootN(q); q += 1 }
      u += 1
    }
    this
  }

  /** Add another accumulator's sums, through the same path a task's partial
    * takes.
    */
  def merge(o: ForestAcc): ForestAcc = add(o.pack)
}

/** A [[ForestAcc]] as a sampling task ships it: the dense sums, and the
  * n×|T| root counts as sparse rows. Row u's nonzeros are entries
  * `rowEnd(u−1) until rowEnd(u)` of `rootT` (T index, ascending) and
  * `rootN` (count). `rowEnd` is empty when |T| = 0.
  *
  * Kryo writes an `int[]` at 4 bytes an entry (Spark's unsafe Kryo output
  * even when asked for varints), so [[write]] sends the sparse rows one
  * varint at a time: T indices below 128, counts below 128 and row lengths
  * (`rowEnd` differences) below 128 take one byte each. The fields are
  * `var`s only so that [[read]] can fill them.
  */
final class ForestPartial(var count: Long, var phiSum: Array[Double], var diagSum: Array[Double],
                          var diagSqSum: Array[Double], var rowEnd: Array[Int], var rootT: Array[Int],
                          var rootN: Array[Int]) extends Serializable with KryoSerializable {

  override def write(kryo: Kryo, out: Output): Unit = {
    out.writeLong(count)
    for (a <- Seq(phiSum, diagSum, diagSqSum)) { out.writeVarInt(a.length, true); out.writeDoubles(a) }
    out.writeVarInt(rowEnd.length, true)
    out.writeVarInt(rootT.length, true)
    var prev = 0
    var i = 0
    while (i < rowEnd.length) { out.writeVarInt(rowEnd(i) - prev, true); prev = rowEnd(i); i += 1 }
    i = 0
    while (i < rootT.length) { out.writeVarInt(rootT(i), true); out.writeVarInt(rootN(i), true); i += 1 }
  }

  override def read(kryo: Kryo, in: Input): Unit = {
    count = in.readLong()
    phiSum = in.readDoubles(in.readVarInt(true))
    diagSum = in.readDoubles(in.readVarInt(true))
    diagSqSum = in.readDoubles(in.readVarInt(true))
    rowEnd = new Array[Int](in.readVarInt(true))
    rootT = new Array[Int](in.readVarInt(true))
    rootN = new Array[Int](rootT.length)
    var end = 0
    var i = 0
    while (i < rowEnd.length) { end += in.readVarInt(true); rowEnd(i) = end; i += 1 }
    i = 0
    while (i < rootT.length) { rootT(i) = in.readVarInt(true); rootN(i) = in.readVarInt(true); i += 1 }
  }
}

/** Reusable per-task scratch space (avoids reallocating O(n) arrays per
  * forest inside a partition). The per-node rows are node-major
  * (`u·nsrc + j`), so one forest edge touches one cache line of each.
  */
final class ForestScratch(ctx: ForestContext) {
  val n: Int = ctx.n
  /** The context's source rows, node-major. */
  val src: Array[Double] = {
    val a = new Array[Double](ctx.nsrc * n)
    for (j <- 0 until ctx.nsrc; u <- 0 until n) a(u * ctx.nsrc + j) = ctx.sources(j)(u)
    a
  }
  /** The roots, ascending. */
  val roots: Array[Int] = (0 until n).filter(ctx.isRoot(_)).toArray
  /** Subtree sums of the source rows. */
  val subW: Array[Double] = new Array[Double](ctx.nsrc * n)
  /** Voltage estimates of the current forest. */
  val phi: Array[Double] = new Array[Double](ctx.nsrc * n)
  /** Subtree sizes. */
  val size: Array[Int] = new Array[Int](n)
  /** Preorder labels: `subtree(a)` holds the nodes labelled
    * `tin(a) until tin(a) + size(a)`.
    */
  val tin: Array[Int] = new Array[Int](n)
  /** Next free label inside a node's interval, while labels are handed out. */
  val next: Array[Int] = new Array[Int](n)
  /** T index of the node's tree root (-1 when that root is not in T). */
  val rootT: Array[Int] = new Array[Int](n)
}

object ForestStats {

  /** Fold one forest into `acc`. */
  def fold(ctx: ForestContext, f: Wilson.Forest, acc: ForestAcc, scr: ForestScratch): Unit = {
    val n = ctx.n
    val nsrc = ctx.nsrc
    val isRoot = ctx.isRoot
    val bfsParent = ctx.bfsParent
    val parent = f.parent
    val order = f.order
    acc.count += 1

    // --- subtree sums of every source row, and subtree sizes (children
    // precede parents in order)
    val subW = scr.subW; val size = scr.size
    System.arraycopy(scr.src, 0, subW, 0, subW.length)
    java.util.Arrays.fill(size, 1)
    var k = 0
    while (k < order.length) {
      val c = order(k)
      val p = parent(c)
      size(p) += size(c)
      if (!isRoot(p)) {
        val co = c * nsrc; val po = p * nsrc
        var j = 0
        while (j < nsrc) { subW(po + j) += subW(co + j); j += 1 }
      }
      k += 1
    }

    // --- preorder intervals for O(1) "is a an ancestor of u" tests, and the
    // T index of every node's root: the roots take consecutive intervals,
    // then each child (parents first: reverse order) takes the next free
    // slot inside its parent's interval
    val tin = scr.tin; val next = scr.next; val rootT = scr.rootT
    if (ctx.wantDiag || ctx.wantRoots) {
      var timer = 0
      var i = 0
      while (i < scr.roots.length) {
        val r = scr.roots(i)
        tin(r) = timer; next(r) = timer + 1; timer += size(r)
        rootT(r) = if (ctx.wantRoots) ctx.tIndex(r) else -1
        i += 1
      }
      k = order.length - 1
      while (k >= 0) {
        val c = order(k)
        val p = parent(c)
        val t = next(p)
        tin(c) = t; next(c) = t + 1; next(p) = t + size(c)
        rootT(c) = rootT(p)
        k -= 1
      }
    }

    // --- diagonal estimates: walk the BFS path of every non-root node
    if (ctx.wantDiag) {
      val diagSum = acc.diagSum; val diagSqSum = acc.diagSqSum
      var u = 0
      while (u < n) {
        if (!isRoot(u)) {
          var d = 0
          var a = u
          var b = bfsParent(u)
          val tu = tin(u)
          while (b != -1) { // up the BFS path until a is a root
            // edge (a -> b): +1 if the forest path of u uses it forward,
            // -1 if backward. Forward ⟺ π(a) = b and u ∈ subtree(a). A
            // root b has π(b) = -1, so the backward test needs no root check.
            if (parent(a) == b && tin(a) <= tu && tu < tin(a) + size(a)) d += 1
            if (parent(b) == a && tin(b) <= tu && tu < tin(b) + size(b)) d -= 1
            a = b
            b = bfsParent(a)
          }
          diagSum(u) += d
          diagSqSum(u) += d.toDouble * d
        }
        u += 1
      }
    }

    // --- voltage estimates per source row: integrate currents down the BFS tree
    val phi = scr.phi; val phiSum = acc.phiSum
    k = 0
    while (k < ctx.bfsOrder.length) {
      val u = ctx.bfsOrder(k)
      if (!isRoot(u)) {
        val b = ctx.bfsParent(u)
        val bRoot = isRoot(b)
        val fwd = parent(u) == b
        val back = !bRoot && parent(b) == u
        val uo = u * nsrc; val bo = b * nsrc
        var j = 0
        while (j < nsrc) {
          var t = if (bRoot) 0.0 else phi(bo + j)
          if (fwd) t += subW(uo + j)
          if (back) t -= subW(bo + j)
          phi(uo + j) = t
          j += 1
        }
      }
      k += 1
    }
    // --- per node, in node order: the voltages into the j-major sums (one
    // write stream per row) and the rooted-at-t count for the Schur variant
    val wantRoots = ctx.wantRoots
    val numT = ctx.numT; val rootCnt = acc.rootCnt
    var u = 0
    while (u < n) {
      if (!isRoot(u)) {
        val uo = u * nsrc
        var j = 0
        while (j < nsrc) { phiSum(j * n + u) += phi(uo + j); j += 1 }
        if (wantRoots) {
          val ti = rootT(u)
          if (ti >= 0) rootCnt(u * numT + ti) += 1
        }
      }
      u += 1
    }
  }
}
