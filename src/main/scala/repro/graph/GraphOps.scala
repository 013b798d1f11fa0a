package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Graph analytics over edge DataFrames plus local CSR helpers.
  *
  * Degrees are the Catalyst-facing layer — tests verify them against DuckDB.
  * Components, BFS and diameter run on the local CSR (BFS sits on the hot
  * path of the samplers).
  */
object GraphOps {

  /** Per-node degree of an undirected edge list: `(node, degree)`. */
  def degrees(edges: DataFrame): DataFrame = {
    val ends = edges.select(col("src").as("node")).unionAll(edges.select(col("dst").as("node")))
    ends.groupBy("node").agg(count(lit(1)).as("degree"))
  }

  /** Connected components by union-find over collected edges: the
    * component label of every node, the smallest id in its component. Used
    * for LCC extraction.
    */
  def unionFindComponents(n: Int, edges: Iterable[(Int, Int)]): Array[Int] = {
    val parent = Array.tabulate(n)(identity)
    def find(x0: Int): Int = {
      var x = x0
      while (parent(x) != x) { parent(x) = parent(parent(x)); x = parent(x) }
      x
    }
    edges.foreach { case (a, b) =>
      val ra = find(a); val rb = find(b)
      if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
    }
    Array.tabulate(n)(find)
  }

  /** Largest connected component of an edge DataFrame, relabelled to dense
    * ids `0 until n'` (order-preserving), returned as a CSR graph.
    */
  def largestComponent(edges: DataFrame): CsrGraph = {
    val g = CsrGraph.fromDataFrame(edges)
    val comp = unionFindComponents(g.n, g.edgeList)
    val sizes = new Array[Int](g.n)
    comp.foreach(c => sizes(c) += 1)
    val best = sizes.indices.maxBy(sizes)
    val remap = new Array[Int](g.n)
    var next = 0
    for (u <- 0 until g.n) if (comp(u) == best) { remap(u) = next; next += 1 } else remap(u) = -1
    val kept = g.edgeList.collect {
      case (a, b) if comp(a) == best && comp(b) == best => (remap(a), remap(b))
    }
    CsrGraph.fromEdges(next, kept)
  }

  /** The one BFS loop: visits `sources` in the order given (a repeated
    * source once), then FIFO, each node's neighbors in CSR order. Returns
    * the visit order (its first `reached` entries hold the reached nodes),
    * each node's BFS-tree parent (-1 for a source, -2 if unreached) and
    * `reached`.
    */
  private def search(g: CsrGraph, sources: Iterable[Int]): (Array[Int], Array[Int], Int) = {
    val parent = Array.fill(g.n)(-2)
    val order = new Array[Int](g.n)
    var tail = 0
    sources.foreach { s => if (parent(s) == -2) { parent(s) = -1; order(tail) = s; tail += 1 } }
    var head = 0
    while (head < tail) {
      val u = order(head); head += 1
      var i = g.off(u)
      while (i < g.off(u + 1)) {
        val v = g.adj(i)
        if (parent(v) == -2) { parent(v) = u; order(tail) = v; tail += 1 }
        i += 1
      }
    }
    (order, parent, tail)
  }

  /** BFS distances (in hops) from a set of sources; unreachable = -1. */
  def bfs(g: CsrGraph, sources: Iterable[Int]): Array[Int] = {
    val (order, parent, reached) = search(g, sources)
    val dist = Array.fill(g.n)(-1)
    // a parent precedes its children in BFS order
    for (k <- 0 until reached) { val u = order(k); dist(u) = if (parent(u) < 0) 0 else dist(parent(u)) + 1 }
    dist
  }

  /** Nodes in BFS order from a source set (the order Algorithms 2–5 call
    * `L_BFS`), together with each node's BFS-tree parent (-1 for sources).
    * Fails unless the sources reach every node.
    */
  def bfsTree(g: CsrGraph, sources: Iterable[Int]): (Array[Int], Array[Int]) = {
    val (order, parent, reached) = search(g, sources)
    require(reached == g.n, s"graph not connected from sources: reached $reached of ${g.n}")
    (order, parent)
  }

  /** BFS sweeps of [[diameterEstimate]]. */
  private final val DiameterSweeps = 4

  /** Double-sweep diameter lower bound (exact on trees, near-exact on the
    * graph families used here); the paper reports exact τ — see DESIGN.md.
    */
  def diameterEstimate(g: CsrGraph): Int = {
    var far = 0
    var best = 0
    var s = 0
    var i = 0
    while (i < DiameterSweeps) {
      val d = bfs(g, Seq(s))
      var u = 0; var ecc = 0; far = s
      while (u < g.n) { if (d(u) > ecc) { ecc = d(u); far = u }; u += 1 }
      if (ecc > best) best = ecc
      s = far
      i += 1
    }
    best
  }

  /** Residual-degree peeling: repeatedly remove the max-degree node of the
    * remaining graph. Returns the removal order and, for each prefix size c,
    * the max degree of the remaining graph (`d_max(T_c)`).
    * Used to pick `|T*| = argmin_c | c − d_max(T_c) |` (Section V-A).
    */
  def degreePeeling(g: CsrGraph, maxC: Int): (Array[Int], Array[Int]) = {
    val deg = g.degrees
    val removed = new Array[Boolean](g.n)
    val order = new Array[Int](math.min(maxC, g.n))
    val residualMax = new Array[Int](order.length)
    var c = 0
    while (c < order.length) {
      var best = -1; var bestD = -1
      var u = 0
      while (u < g.n) { if (!removed(u) && deg(u) > bestD) { best = u; bestD = deg(u) }; u += 1 }
      removed(best) = true
      order(c) = best
      var i = g.off(best)
      while (i < g.off(best + 1)) { val v = g.adj(i); if (!removed(v)) deg(v) -= 1; i += 1 }
      var mx = 0; u = 0
      while (u < g.n) { if (!removed(u) && deg(u) > mx) mx = deg(u); u += 1 }
      residualMax(c) = mx
      c += 1
    }
    (order, residualMax)
  }

  /** `T*` per Section V-A: the degree-peel prefix (at most `maxC` nodes)
    * whose size c balances |T| against the residual max degree.
    * `residualMax(c-1)` is `d_max` after removing c nodes.
    */
  def tStar(g: CsrGraph, maxC: Int): Array[Int] = {
    val (order, residualMax) = degreePeeling(g, math.min(maxC, g.n - 1))
    var best = 1; var bestGap = Long.MaxValue
    var c = 1
    while (c <= residualMax.length) {
      val gap = math.abs(c.toLong - residualMax(c - 1))
      if (gap < bestGap) { bestGap = gap; best = c }
      c += 1
    }
    order.take(best)
  }
}
