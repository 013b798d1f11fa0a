package repro.core

/** The greedy loop of all four greedy algorithms (FORESTCFCM, SCHURCFCM,
  * APPROXGREEDY and EXACT): a first pick, then k−1 picks, each the argmax of
  * that iteration's Δ estimates.
  */
object Greedy {

  /** Picks `first`, then for i = 1 until k the [[argmax]] of `delta(S, i)`,
    * where S holds the picks so far.
    *
    * @param delta Δ estimate per node, indexed by node id
    */
  def run(k: Int, first: Int)(delta: (Set[Int], Int) => Array[Double]): Seq[Int] = {
    val picked = scala.collection.mutable.LinkedHashSet(first)
    var i = 1
    while (i < k) {
      picked += argmax(delta(picked.toSet, i), picked)
      i += 1
    }
    picked.toSeq
  }

  /** Fail unless `k` picks fit an n-node graph: 1 ≤ k < n, since S must
    * leave at least one node outside it.
    */
  def requireK(k: Int, n: Int): Unit =
    require(k >= 1 && k < n, s"k = $k picks need 1 ≤ k < n = $n")

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
    * node whose Δ is −∞ is never chosen (−1 if every node is picked or −∞).
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
