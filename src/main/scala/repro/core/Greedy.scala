package repro.core

/** The greedy loop of FORESTCFCM, SCHURCFCM and APPROXGREEDY: a first pick,
  * then k−1 picks, each the argmax of that iteration's Δ estimates.
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
