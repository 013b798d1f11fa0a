package repro.forest

import com.esotericsoftware.kryo.{DefaultSerializer, Kryo, Serializer}
import com.esotericsoftware.kryo.io.{Input, Output}
import repro.graph.{CsrGraph, GraphOps}

/** Immutable per-sampling-phase configuration, broadcast to Spark tasks.
  *
  * Holds everything a task needs to fold one sampled forest into the running
  * estimator sums: the graph, the root set, the fixed BFS integration tree
  * (Lemma 3.3 voltages are path integrals of estimated edge currents along a
  * *fixed* path — we use the BFS tree from the root set), the source weight
  * rows (JL rows / the all-ones vector), and the auxiliary root list T for
  * the Schur variant. The integral is linear in the forests, so a task sums
  * each node's BFS-edge current over its forests, and the driver integrates
  * the merged sums down the BFS tree once ([[ForestAcc.integrate]]).
  *
  * @param g         graph
  * @param isRoot    root-set membership (S, or S ∪ T for SCHURDELTA)
  * @param roots     the root set, ascending
  * @param bfsParent BFS-tree parent (-1 at roots)
  * @param bfsOrder  nodes in BFS order from the root set, the roots first
  * @param sources   `nsrc` weight rows over all n nodes (zero at roots);
  *                  row j yields the estimator of `w_jᵀ L_{-S}^{-1} e_u`
  * @param wantDiag  estimate the diagonal `(L_{-S}^{-1})_{uu}` too. Every
  *                  greedy phase sets it; it stays a flag because the
  *                  voltage-only estimator tests turn it off, and
  *                  `perfbench` passes it and reads it back
  * @param tIndex    node → index in T (-1 if not in T); empty array disables
  *                  rooted-at-t counting (non-Schur phases)
  * @param numT      |T|
  */
final class ForestContext(
    val g: CsrGraph,
    val isRoot: Array[Boolean],
    val roots: Array[Int],
    val bfsParent: Array[Int],
    val bfsOrder: Array[Int],
    val sources: Array[Array[Double]],
    val wantDiag: Boolean,
    val tIndex: Array[Int],
    val numT: Int,
) extends Serializable {
  def n: Int = g.n
  def nsrc: Int = sources.length
  def numRoots: Int = roots.length
  def wantRoots: Boolean = numT > 0
}

object ForestContext {

  /** Build a context for root set `roots` on graph `g`. Every node needs a
    * path to a root: the greedy runs check their graph once
    * ([[repro.core.Greedy.requireInput]]), and here the BFS tree fails on
    * a node that no root reaches.
    */
  def apply(g: CsrGraph, roots: Set[Int], sources: Array[Array[Double]],
            wantDiag: Boolean, tList: Array[Int] = Array.empty): ForestContext = {
    val sorted = roots.toArray.sorted
    val isRoot = new Array[Boolean](g.n)
    sorted.foreach(isRoot(_) = true)
    val (order, parent) = GraphOps.bfsTree(g, sorted)
    val tIndex = Array.fill(g.n)(-1)
    tList.zipWithIndex.foreach { case (t, i) => tIndex(t) = i }
    // Source rows must be grounded at the roots: the estimators treat root
    // voltages as 0 and root nodes carry no source weight.
    val grounded = sources.map { row =>
      val r = row.clone()
      sorted.foreach(r(_) = 0.0)
      r
    }
    new ForestContext(g, isRoot, sorted, parent, order, grounded, wantDiag, tIndex, tList.length)
  }
}

/** Mutable estimator sums over a stream of sampled forests.
  *
  * Per forest, [[ForestStats.fold]] adds:
  *  - `c_j(u)`: for source row j, the Lemma 3.3 current estimate on the BFS
  *    edge from u to its BFS parent b — computed by subtree-summing `w_j`
  *    over the forest (one pass over `L_DFS`): `+Σ_{subtree(u)} w_j` if
  *    π(u) = b, `−Σ_{subtree(b)} w_j` if π(b) = u, else 0;
  *  - `D(u)`: the diagonal estimate `Φ̄_{u,S}(u)` — BFS-path integration of
  *    `1{π_a = b ∧ u ∈ subtree(a)} − 1{π_b = a ∧ u ∈ subtree(b)}`;
  *  - for the Schur variant, one root row: the T index of every node's tree
  *    root, from which the rooted-at-`t` counts `Ñ(ρ_u = t)` (Lemma 4.2)
  *    follow.
  *
  * A sampling task ships the accumulator it folded into ([[ForestAcc.Wire]]
  * is its Kryo form); the driver [[merge]]s the tasks' accumulators into one
  * in slice order, counting their rows into the dense [[rootCnt]], and then
  * [[integrate]]s the current sums into the voltage sums
  * `Σ_forests φ_j(u)` that [[phi]] reads.
  */
@DefaultSerializer(classOf[ForestAcc.Wire])
final class ForestAcc private (val nsrc: Int, val n: Int, val wantDiag: Boolean, val numT: Int,
                               /** Flat n×nsrc, node-major (`u·nsrc + j`): Σ_forests c_j(u),
                                 * the BFS-edge current sums, until [[integrate]] turns them
                                 * into Σ_forests φ_j(u), the voltage sums [[phi]] reads.
                                 */
                               val phiSum: Array[Double]) extends Serializable {
  /** An empty accumulator of the given shape. */
  def this(nsrc: Int, n: Int, wantDiag: Boolean, numT: Int) = this(nsrc, n, wantDiag, numT, new Array[Double](nsrc * n))
  require(numT <= Short.MaxValue, s"|T| = $numT does not fit a Short root row")
  var count: Long = 0L

  /** Whether [[phiSum]] holds voltage sums: [[integrate]] has run. */
  private var integrated = false

  /** Σ_forests φ_j(u); readable once the sums are integrated. */
  def phi(j: Int, u: Int): Double = {
    if (!integrated) throw new IllegalStateException("φ sums are read before ForestAcc.integrate")
    phiSum(u * nsrc + j)
  }

  /** Turn the current sums into voltage sums by integrating them down the
    * BFS tree of `ctx`, the context they were folded on, parents first:
    * `Σφ_j(u) = Σφ_j(b) + Σc_j(u)` with b u's BFS parent. A root's sums stay
    * 0. O(n·nsrc), once per sampling phase, after the last [[merge]].
    */
  def integrate(ctx: ForestContext): ForestAcc = {
    require(!integrated, "the φ sums are already integrated")
    require(ctx.nsrc == nsrc && ctx.n == n, "a context of another shape")
    val order = ctx.bfsOrder; val bfsParent = ctx.bfsParent
    var k = ctx.numRoots
    while (k < order.length) {
      val u = order(k)
      val uo = u * nsrc; val bo = bfsParent(u) * nsrc
      var j = 0
      while (j < nsrc) { phiSum(uo + j) += phiSum(bo + j); j += 1 }
      k += 1
    }
    integrated = true
    this
  }

  /** Σ_forests D(u). */
  val diagSum: Array[Double] = if (wantDiag) new Array[Double](n) else Array.emptyDoubleArray
  /** Always empty: nothing computes Σ_forests D(u)². The member stays only
    * because `perfbench` sizes the accumulator with its length; it goes at
    * the next benchmark change.
    */
  val diagSqSum: Array[Double] = Array.emptyDoubleArray
  /** The root rows of the forests folded here, n entries each, forest-major:
    * the T index of u's tree root, −1 at a root node and for a tree rooted in
    * S. The first `rowsLen` entries are used; none when |T| = 0.
    */
  private var rows: Array[Short] = Array.emptyShortArray
  private var rowsLen = 0
  /** Dense Ñ(ρ_u = t), flat n×numT; allocated on the first [[merge]] or read
    * of [[rootCnt]], so a sampling task never holds it.
    */
  private var counts: Array[Int] = null
  /** Entries of `rows` already counted into `counts`. */
  private var counted = 0
  /** Whether `counts` hold merged accumulators' rows, which `rows` do not
    * describe.
    */
  private var merged = false

  /** Room for one more root row; returns its offset into [[rowBuf]]. */
  private[forest] def appendRow(): Int = {
    val need = rowsLen.toLong + n
    require(need <= ForestAcc.MaxRowEntries, s"more than ${ForestAcc.MaxRowEntries / n} forests in one accumulator")
    if (need > rows.length)
      rows = java.util.Arrays.copyOf(rows, math.min(ForestAcc.MaxRowEntries, math.max(need, 2L * rows.length)).toInt)
    val off = rowsLen
    rowsLen += n
    off
  }

  private[forest] def rowBuf: Array[Short] = rows

  /** Ñ(ρ_u = t), flat n×numT (`u·numT + t`): the merged accumulators' rows
    * and this accumulator's own rows, counted. Reading it counts the own rows
    * folded since the last read.
    */
  def rootCnt: Array[Int] =
    if (numT == 0) Array.emptyIntArray
    else {
      if (counted < rowsLen) { countRows(rows, counted, rowsLen); counted = rowsLen }
      dense
    }

  private def dense: Array[Int] = {
    if (counts == null) counts = new Array[Int](n * numT)
    counts
  }

  /** Count the rows in `r(from until until)` into the dense counts, node by
    * node, so that each node's counts are touched once per call. This runs
    * on the driver, after the tasks: blocks of nodes go to all cores (the
    * writes are per-node disjoint, and integer counts do not depend on the
    * order).
    */
  private def countRows(r: Array[Short], from: Int, until: Int): Unit = {
    val c = dense
    java.util.stream.IntStream.range(0, (n + ForestAcc.CountBlock - 1) / ForestAcc.CountBlock).parallel().forEach { b =>
      var u = b * ForestAcc.CountBlock
      val end = math.min(n, u + ForestAcc.CountBlock)
      while (u < end) {
        val cu = u * numT
        var i = from + u
        while (i < until) { val t = r(i); if (t >= 0) c(cu + t) += 1; i += n }
        u += 1
      }
    }
  }

  /** Add another accumulator's sums, entry by entry: its count, current (or,
    * both integrated, voltage) and diagonal sums, its dense root counts if it
    * has any, and its root rows not yet counted into them. `o` is left as it
    * was.
    */
  def merge(o: ForestAcc): ForestAcc = {
    require(o.nsrc == nsrc && o.n == n && o.wantDiag == wantDiag && o.numT == numT, "accumulator of another shape")
    require(o.integrated == integrated, "current sums merged with integrated voltage sums")
    count += o.count
    var i = 0
    while (i < phiSum.length) { phiSum(i) += o.phiSum(i); i += 1 }
    i = 0
    while (i < diagSum.length) { diagSum(i) += o.diagSum(i); i += 1 }
    if (numT > 0) {
      if (o.counts != null) {
        val c = dense
        i = 0
        while (i < c.length) { c(i) += o.counts(i); i += 1 }
      }
      if (o.counted < o.rowsLen) countRows(o.rows, o.counted, o.rowsLen)
      merged = true
    }
    this
  }
}

object ForestAcc {
  /** Root-row entries one accumulator can hold (the JVM's array limit). */
  private val MaxRowEntries = Int.MaxValue - 8L
  /** Nodes per parallel block when root rows are counted. */
  private val CountBlock = 1024

  /** The wire form of a sampling task's accumulator: its shape, the count,
    * the current sums (not yet integrated), the diagonal sums and its own
    * root rows. Kryo writes primitive arrays at full width (Spark's unsafe
    * Kryo output even when asked for varints), so [[write]] sends the
    * integer-valued parts one varint at a time: each diagonal sum, an
    * integer within a task, zigzag encoded, and each root-row entry as
    * `t + 1`, one byte while |T| < 128. The current sums go through Kryo's
    * own `writeDoubles`/`readDoubles`: with Spark's default
    * `spark.kryo.unsafe = true` those are one bulk memory copy each.
    */
  final class Wire extends Serializer[ForestAcc] {

    override def write(kryo: Kryo, out: Output, a: ForestAcc): Unit = {
      require(!a.merged, "an accumulator ships the root rows it folded; a merged accumulator's root counts " +
        "cannot be shipped as rows")
      require(!a.integrated, "an accumulator ships current sums; integrate after the merge")
      out.writeVarInt(a.nsrc, true)
      out.writeVarInt(a.n, true)
      out.writeBoolean(a.wantDiag)
      out.writeVarInt(a.numT, true)
      out.writeVarLong(a.count, true)
      out.writeDoubles(a.phiSum)
      var i = 0
      while (i < a.diagSum.length) {
        val d = a.diagSum(i)
        val l = d.toLong
        require(l == d, s"diagonal sum $d of node $i is not an integer")
        out.writeVarLong(l, false)
        i += 1
      }
      out.writeVarInt(a.rowsLen, true)
      i = 0
      while (i < a.rowsLen) { out.writeVarInt(a.rows(i) + 1, true); i += 1 }
    }

    override def read(kryo: Kryo, in: Input, cls: Class[ForestAcc]): ForestAcc = {
      val (nsrc, n, wantDiag, numT) = (in.readVarInt(true), in.readVarInt(true), in.readBoolean(), in.readVarInt(true))
      val count = in.readVarLong(true)
      val a = new ForestAcc(nsrc, n, wantDiag, numT, in.readDoubles(nsrc * n))
      a.count = count
      var i = 0
      while (i < a.diagSum.length) { a.diagSum(i) = in.readVarLong(false).toDouble; i += 1 }
      a.rowsLen = in.readVarInt(true)
      a.rows = new Array[Short](a.rowsLen)
      i = 0
      while (i < a.rowsLen) { a.rows(i) = (in.readVarInt(true) - 1).toShort; i += 1 }
      a
    }
  }
}

/** Reusable per-task scratch space (avoids reallocating O(n) arrays per
  * forest inside a partition). The per-node rows are node-major
  * (`u·nsrc + j`), so one forest edge touches one cache line of each.
  */
final class ForestScratch(ctx: ForestContext) {
  val n: Int = ctx.n
  /** The context's source rows, node-major. */
  val src: Array[Double] = ForestScratch.nodeMajor(ctx.sources, n)
  /** Subtree sums of the source rows. */
  val subW: Array[Double] = new Array[Double](ctx.nsrc * n)
  /** Subtree sizes. */
  val size: Array[Int] = new Array[Int](n)
  /** Preorder labels: `subtree(a)` holds the nodes labelled
    * `tin(a) until tin(a) + size(a)`.
    */
  val tin: Array[Int] = new Array[Int](n)
  /** Next free label inside a node's interval, while labels are handed out. */
  val next: Array[Int] = new Array[Int](n)
  /** The current forest's diagonal estimates D(u); 0 at the roots, which the
    * fold never writes.
    */
  val diag: Array[Int] = new Array[Int](n)
  /** The nearest node x on u's BFS path (u itself included) whose BFS edge
    * to its BFS parent is also a forest edge, either way round; −1 if there
    * is none. −1 at the roots, which the fold never writes.
    */
  val jump: Array[Int] = Array.fill(n)(-1)
}

/** The set-up loop of [[ForestScratch]]. It lives in a method: a loop in a
  * field initializer runs with `this` on the JVM operand stack, where
  * HotSpot cannot compile it on-stack, so each task would run it
  * interpreted.
  */
object ForestScratch {

  private def nodeMajor(rows: Array[Array[Double]], n: Int): Array[Double] = {
    val nsrc = rows.length
    val a = new Array[Double](nsrc * n)
    var j = 0
    while (j < nsrc) {
      val row = rows(j)
      var u = 0
      while (u < n) { a(u * nsrc + j) = row(u); u += 1 }
      j += 1
    }
    a
  }
}

object ForestStats {

  /** Fold one forest into `acc`: add each non-root node's BFS-edge current
    * estimates to [[ForestAcc.phiSum]] (current sums, which the driver
    * integrates into voltage sums once per phase), its diagonal estimate to
    * [[ForestAcc.diagSum]] and, for the Schur variant, the forest's root row.
    */
  def fold(ctx: ForestContext, f: Wilson.Forest, acc: ForestAcc, scr: ForestScratch): Unit = {
    val nsrc = ctx.nsrc
    val isRoot = ctx.isRoot
    val bfsParent = ctx.bfsParent
    val parent = f.parent
    val order = f.order
    acc.count += 1

    // --- subtree sums of every source row, and subtree sizes (children
    // precede parents in order). When c is reached its sums are final, so
    // the current of its forest edge c → p goes to the BFS edge it lies on:
    // +subW(c) to c's if p is c's BFS parent, −subW(c) to p's if c is p's (a
    // root p has BFS parent −1).
    val subW = scr.subW; val size = scr.size; val cur = acc.phiSum
    System.arraycopy(scr.src, 0, subW, 0, subW.length)
    java.util.Arrays.fill(size, 1)
    var k = 0
    while (k < order.length) {
      val c = order(k)
      val p = parent(c)
      size(p) += size(c)
      val co = c * nsrc; val po = p * nsrc
      if (bfsParent(c) == p) {
        var j = 0
        while (j < nsrc) { cur(co + j) += subW(co + j); j += 1 }
      } else if (bfsParent(p) == c) {
        var j = 0
        while (j < nsrc) { cur(po + j) -= subW(co + j); j += 1 }
      }
      if (!isRoot(p)) {
        var j = 0
        while (j < nsrc) { subW(po + j) += subW(co + j); j += 1 }
      }
      k += 1
    }

    // --- preorder intervals for O(1) "is a an ancestor of u" tests, and for
    // the Schur variant the forest's root row: the roots take consecutive
    // intervals, then each child (parents first: reverse order) takes the
    // next free slot inside its parent's interval. A root's entry is −1, a
    // root's child's is the root's T index, and any other node's is its
    // parent's.
    val tin = scr.tin; val next = scr.next
    val wantRoots = ctx.wantRoots
    if (ctx.wantDiag || wantRoots) {
      val row = if (wantRoots) acc.appendRow() else 0
      val rows = acc.rowBuf
      var timer = 0
      var i = 0
      while (i < ctx.roots.length) {
        val r = ctx.roots(i)
        tin(r) = timer; next(r) = timer + 1; timer += size(r)
        if (wantRoots) rows(row + r) = -1
        i += 1
      }
      k = order.length - 1
      while (k >= 0) {
        val c = order(k)
        val p = parent(c)
        val t = next(p)
        tin(c) = t; next(c) = t + 1; next(p) = t + size(c)
        if (wantRoots) rows(row + c) = if (isRoot(p)) ctx.tIndex(p).toShort else rows(row + p)
        k -= 1
      }
    }

    // --- diagonal estimates, BFS parents first. D(u) sums, over the BFS
    // edges a → b on u's path, +1 if π(a) = b and u ∈ subtree(a), −1 if
    // π(b) = a and u ∈ subtree(b). With b u's BFS parent: if π(u) = b, u's
    // forest ancestors are u and b's, so D(u) = D(b) + 1; if π(b) = u, the
    // edge u → b adds 0 and b's ancestors are b and u's, so D(u) = D(b).
    // Otherwise only the forest edges on b's path can add a term: walk them
    // by jump, testing u's ancestry by interval.
    if (ctx.wantDiag) {
      val diagSum = acc.diagSum; val diag = scr.diag; val jump = scr.jump
      val bfsOrder = ctx.bfsOrder
      k = ctx.numRoots
      while (k < bfsOrder.length) {
        val u = bfsOrder(k)
        val b = bfsParent(u)
        if (parent(u) == b) { diag(u) = diag(b) + 1; jump(u) = u }
        else if (parent(b) == u) { diag(u) = diag(b); jump(u) = u }
        else {
          val tu = tin(u)
          var d = 0
          var x = jump(b)
          while (x != -1) { // x–y is a forest edge: π(x) = y, or else π(y) = x
            val y = bfsParent(x)
            if (parent(x) == y) { if (tin(x) <= tu && tu < tin(x) + size(x)) d += 1 }
            else if (tin(y) <= tu && tu < tin(y) + size(y)) d -= 1
            x = jump(y)
          }
          diag(u) = d; jump(u) = jump(b)
        }
        diagSum(u) += diag(u)
        k += 1
      }
    }
  }
}
