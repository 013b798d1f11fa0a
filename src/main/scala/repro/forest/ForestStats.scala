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
  * the Schur variant.
  *
  * @param g         graph
  * @param isRoot    root-set membership (S, or S ∪ T for SCHURDELTA)
  * @param roots     the root set, ascending
  * @param bfsParent BFS-tree parent (-1 at roots)
  * @param bfsOrder  nodes in BFS order from the root set
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
  *  - `φ_j(u)`: the Lemma 3.3 voltage estimate for source row j — computed by
  *    subtree-summing `w_j` over the forest (one pass over `L_DFS`) and
  *    integrating the per-edge current estimates along the BFS path;
  *  - `D(u)`: the diagonal estimate `Φ̄_{u,S}(u)` — BFS-path integration of
  *    `1{π_a = b ∧ u ∈ subtree(a)} − 1{π_b = a ∧ u ∈ subtree(b)}` with O(1)
  *    preorder-interval ancestor tests;
  *  - for the Schur variant, one root row: the T index of every node's tree
  *    root, from which the rooted-at-`t` counts `Ñ(ρ_u = t)` (Lemma 4.2)
  *    follow.
  *
  * A sampling task ships the accumulator it folded into ([[ForestAcc.Wire]]
  * is its Kryo form); the driver [[merge]]s the tasks' accumulators into one
  * in slice order, counting their rows into the dense [[rootCnt]].
  */
@DefaultSerializer(classOf[ForestAcc.Wire])
final class ForestAcc private (val nsrc: Int, val n: Int, val wantDiag: Boolean, val numT: Int,
                               /** Σ_forests φ_j(u), flat n×nsrc, node-major (`u·nsrc + j`);
                                 * [[phi]] reads one entry.
                                 */
                               val phiSum: Array[Double]) extends Serializable {
  /** An empty accumulator of the given shape. */
  def this(nsrc: Int, n: Int, wantDiag: Boolean, numT: Int) = this(nsrc, n, wantDiag, numT, new Array[Double](nsrc * n))
  require(numT <= Short.MaxValue, s"|T| = $numT does not fit a Short root row")
  var count: Long = 0L

  /** Σ_forests φ_j(u). */
  def phi(j: Int, u: Int): Double = phiSum(u * nsrc + j)

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

  /** Add another accumulator's sums, entry by entry: its count, φ and
    * diagonal sums, its dense root counts if it has any, and its root rows
    * not yet counted into them. `o` is left as it was.
    */
  def merge(o: ForestAcc): ForestAcc = {
    require(o.nsrc == nsrc && o.n == n && o.wantDiag == wantDiag && o.numT == numT, "accumulator of another shape")
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
    * the φ sums, the diagonal sums and its own root rows. Kryo writes
    * primitive arrays at full width (Spark's unsafe Kryo output even when
    * asked for varints), so [[write]] sends the integer-valued parts one
    * varint at a time: each diagonal sum, an integer within a task, zigzag
    * encoded, and each root-row entry as `t + 1`, one byte while |T| < 128.
    * The φ sums go through Kryo's own `writeDoubles`/`readDoubles`: with
    * Spark's default `spark.kryo.unsafe = true` those are one bulk memory
    * copy each.
    */
  final class Wire extends Serializer[ForestAcc] {

    override def write(kryo: Kryo, out: Output, a: ForestAcc): Unit = {
      require(!a.merged, "an accumulator ships the root rows it folded; a merged accumulator's root counts " +
        "cannot be shipped as rows")
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

    // --- diagonal estimates: walk the BFS path of every non-root node
    if (ctx.wantDiag) {
      val diagSum = acc.diagSum
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
        }
        u += 1
      }
    }

    // --- voltage estimates per source row: integrate currents down the BFS
    // tree, adding each voltage to its sum as it is computed
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
          phiSum(uo + j) += t
          j += 1
        }
      }
      k += 1
    }
  }
}
