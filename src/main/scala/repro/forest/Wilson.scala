package repro.forest

import repro.graph.CsrGraph

/** Algorithm 1 (RANDOMFOREST): uniform random spanning forests rooted at a
  * set S, by Wilson's loop-erased random walks.
  *
  * Returns the parent pointer `π(u)` of every non-root node and the node list
  * `L_DFS` in which every node appears *before* its forest parent (the
  * "reverse DFS order" the paper maintains), so subtree aggregates take one
  * pass instead of τ ancestor hops.
  */
object Wilson {

  /** One sampled forest.
    *
    * @param parent `π(u)` for non-roots; `-1` for roots
    * @param order  all non-root nodes, each before its parent (leaves first)
    */
  final case class Forest(parent: Array[Int], order: Array[Int])

  /** Sample a forest with the given root set.
    *
    * @param g       graph
    * @param isRoot  membership array for the root set S
    * @param numRoots |S|
    * @param rng     task-local RNG (deterministic per (seed, forest index))
    */
  def sample(g: CsrGraph, isRoot: Array[Boolean], numRoots: Int,
             rng: java.util.SplittableRandom): Forest = {
    val n = g.n
    val parent = new Array[Int](n)
    java.util.Arrays.fill(parent, -1)
    val inForest = isRoot.clone()
    val order = new Array[Int](n - numRoots)
    // Chains are written back-to-front: the final L_DFS is the concatenation
    // of retained chains in reverse creation order, each chain forward —
    // exactly Lines 13–14 of Algorithm 1.
    var pos = order.length
    var u = 0
    while (u < n) {
      if (!inForest(u)) {
        // Phase 1: random walk until hitting the forest, recording the last
        // exit edge of every visited node (cycle popping).
        var i = u
        while (!inForest(i)) {
          parent(i) = g.neighbor(i, rng.nextInt(g.degree(i)))
          i = parent(i)
        }
        // Phase 2: retrace the loop-erased path from u, adding it to the
        // forest; count its length first, then write it forward into place.
        var len = 0
        i = u
        while (!inForest(i)) { len += 1; i = parent(i) }
        pos -= len
        i = u
        var k = pos
        while (!inForest(i)) { inForest(i) = true; order(k) = i; k += 1; i = parent(i) }
      }
      u += 1
    }
    Forest(parent, order)
  }
}
