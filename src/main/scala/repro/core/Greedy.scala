package repro.core

import repro.graph.{CsrGraph, GraphOps}

/** The greedy loop of all four greedy algorithms (FORESTCFCM, SCHURCFCM,
  * APPROXGREEDY and EXACT): a first pick, then k−1 picks, each the argmax of
  * that iteration's Δ estimates.
  */
object Greedy {

  /** Picks `first`, then for i = 1 until k the [[argmax]] of `delta(S, i)`,
    * where S holds the picks so far. Fails if an iteration has no node to
    * pick: every Δ outside S is −∞ or NaN.
    *
    * @param delta Δ estimate per node, indexed by node id
    */
  def run(k: Int, first: Int)(delta: (Set[Int], Int) => Array[Double]): Seq[Int] = {
    val picked = scala.collection.mutable.LinkedHashSet(first)
    var i = 1
    while (i < k) {
      val u = argmax(delta(picked.toSet, i), picked)
      if (u < 0)
        throw new IllegalStateException(
          s"greedy iteration $i of $k has no pick: every Δ outside S (|S| = ${picked.size}) is −∞ or NaN")
      picked += u
      i += 1
    }
    picked.toSeq
  }

  /** The one input check of a greedy run of `k` picks on `g`, made once, first
    * (sampling phases do not re-check): 1 ≤ k < n, so that S leaves a node
    * outside it; no node of degree 0 (usually a gap in the ids); and a
    * connected graph. Otherwise `L_{-S}` is singular or a walk has no root.
    */
  def requireInput(g: CsrGraph, k: Int): Unit = {
    val n = g.n
    require(k >= 1 && k < n, s"k = $k picks need 1 ≤ k < n = $n")
    val u = (0 until n).indexWhere(g.degree(_) == 0)
    require(u < 0,
      s"node $u of $n has degree 0: node ids must be dense (0 until n, no gaps); " +
      "GraphOps.largestComponent relabels an edge list that way")
    val reached = GraphOps.bfs(g, Seq(0)).count(_ >= 0)
    require(reached == n,
      s"graph is not connected: $reached of its $n nodes are reachable from node 0; " +
      "GraphOps.largestComponent keeps the largest component")
  }

  /** Δ(u, S) = `num / den`, where `num` estimates ‖L_{-S}^{-1} e_u‖² and `den`
    * estimates (L_{-S}^{-1})_uu (Eq. 5); `den` is guarded at 1e-300 against an
    * estimate that is not positive.
    */
  def delta(num: Double, den: Double): Double = num / math.max(den, 1e-300)

  /** First pick from Lemma 3.5 scores `x` taken around a reference node s,
    * whose own score is `x_s ≡ 0` whatever `x(s)` holds: the argmin of x,
    * ties to s and then to the lowest id.
    */
  def firstPick(x: Array[Double], s: Int): Int = {
    var best = s; var bestX = 0.0
    var u = 0
    while (u < x.length) {
      if (u != s && x(u) < bestX) { bestX = x(u); best = u }
      u += 1
    }
    best
  }

  /** The node outside `picked` with the largest Δ, ties to the lowest id; a
    * node whose Δ is −∞ or NaN is never chosen (−1 if every node is picked,
    * −∞ or NaN).
    */
  def argmax(delta: Array[Double], picked: scala.collection.Set[Int]): Int = {
    var best = -1; var bestD = Double.NegativeInfinity
    var u = 0
    while (u < delta.length) {
      if (!picked.contains(u) && delta(u) > bestD) { bestD = delta(u); best = u }
      u += 1
    }
    best
  }
}
