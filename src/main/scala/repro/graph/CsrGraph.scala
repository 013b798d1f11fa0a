package repro.graph

import org.apache.spark.sql.DataFrame

/** Compact immutable CSR adjacency for an undirected, simple, connected graph.
  *
  * Nodes are `0 until n`. Edges are stored once per direction: `adj` holds the
  * neighbor lists back-to-back, `off(u) until off(u+1)` is node `u`'s slice.
  * This is the structure broadcast into Spark tasks for random walks / BFS;
  * it is deliberately primitive-array based so a million-edge graph is a few
  * tens of MB and serializes fast.
  *
  * @param n   number of nodes
  * @param off CSR offsets, length `n + 1`
  * @param adj concatenated neighbor lists, length `2m`
  */
final class CsrGraph(val n: Int, val off: Array[Int], val adj: Array[Int]) extends Serializable {

  /** Number of undirected edges. */
  def m: Long = adj.length.toLong / 2

  /** Degree of node `u`. */
  @inline def degree(u: Int): Int = off(u + 1) - off(u)

  /** Neighbor `i` (0-based within the adjacency slice) of node `u`. */
  @inline def neighbor(u: Int, i: Int): Int = adj(off(u) + i)

  /** A node of maximum degree (smallest id wins ties, so it is deterministic). */
  lazy val maxDegreeNode: Int = {
    var best = 0; var bestD = degree(0); var u = 1
    while (u < n) { val d = degree(u); if (d > bestD) { best = u; bestD = d }; u += 1 }
    best
  }

  /** Degrees as an array (copy). */
  def degrees: Array[Int] = Array.tabulate(n)(degree)

  /** Edge list as (src, dst) with src < dst, for exporting back to DataFrames. */
  def edgeList: Array[(Int, Int)] = {
    val buf = Array.newBuilder[(Int, Int)]
    var u = 0
    while (u < n) {
      var i = off(u)
      while (i < off(u + 1)) { val v = adj(i); if (u < v) buf += ((u, v)); i += 1 }
      u += 1
    }
    buf.result()
  }
}

object CsrGraph {

  /** Build a CSR graph from undirected edge pairs (any orientation, duplicates
    * and self-loops dropped). Node ids must lie in `0 until n`.
    */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): CsrGraph = {
    // Deduplicate on the canonical (min,max) orientation; drop self-loops.
    val set = new java.util.HashSet[Long]()
    edges.foreach { case (a, b) =>
      if (a != b) {
        val lo = math.min(a, b); val hi = math.max(a, b)
        require(lo >= 0 && hi < n, s"edge ($a,$b) outside [0,$n)")
        set.add(lo.toLong * n + hi)
      }
    }
    val deg = new Array[Int](n + 1)
    val it0 = set.iterator()
    while (it0.hasNext) {
      val e = it0.next(); val lo = (e / n).toInt; val hi = (e % n).toInt
      deg(lo + 1) += 1; deg(hi + 1) += 1
    }
    val off = new Array[Int](n + 1)
    var u = 0
    while (u < n) { off(u + 1) = off(u) + deg(u + 1); u += 1 }
    val cursor = off.clone()
    val adj = new Array[Int](off(n))
    val it1 = set.iterator()
    while (it1.hasNext) {
      val e = it1.next(); val lo = (e / n).toInt; val hi = (e % n).toInt
      adj(cursor(lo)) = hi; cursor(lo) += 1
      adj(cursor(hi)) = lo; cursor(hi) += 1
    }
    // Sort each adjacency slice so neighbor order (and thus seeded sampling)
    // is deterministic regardless of input edge order.
    u = 0
    while (u < n) { java.util.Arrays.sort(adj, off(u), off(u + 1)); u += 1 }
    new CsrGraph(n, off, adj)
  }

  /** Collect an edge DataFrame with integer columns `src`, `dst` into a CSR.
    * The DataFrame is the Catalyst-side representation; this is the bridge to
    * the walk/BFS substrate.
    */
  def fromDataFrame(edges: DataFrame): CsrGraph = {
    val rows = edges.selectExpr("cast(src as int) src", "cast(dst as int) dst").collect()
    val pairs = rows.map(r => (r.getInt(0), r.getInt(1)))
    val n = if (pairs.isEmpty) 0 else pairs.iterator.map(p => math.max(p._1, p._2)).max + 1
    fromEdges(n, pairs)
  }
}
