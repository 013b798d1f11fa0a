package repro

import repro.graph.{CsrGraph, GraphOps}
import repro.linalg.Dense
import repro.TestKit.{maxAbsDiff, sampleForest}

/** Property-style suites over randomized connected graphs (deterministic
  * seed sweep): structural invariants that must hold for *every* input, not
  * just the curated fixtures.
  */
class PropertySpec extends SparkSpec {

  /** Random connected graph: random spanning tree + extra random edges. */
  private def randomConnected(seed: Long): CsrGraph = {
    val rng = new java.util.SplittableRandom(seed)
    val n = 2 + rng.nextInt(39)
    val extra = rng.nextInt(2 * n + 1)
    val edges = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    for (v <- 1 until n) edges += ((rng.nextInt(v), v)) // random tree
    for (_ <- 0 until extra) {
      val a = rng.nextInt(n); val b = rng.nextInt(n)
      if (a != b) edges += ((a, b))
    }
    CsrGraph.fromEdges(n, edges.toSeq)
  }

  private val trials = 25

  test("property: CSR degrees sum to twice the edge count") {
    for (t <- 0 until trials) {
      val g = randomConnected(1000 + t)
      assert(g.degrees.sum.toLong == 2 * g.m, s"trial $t")
    }
  }

  test("property: BFS from node 0 reaches every node with sane distances") {
    for (t <- 0 until trials) {
      val g = randomConnected(2000 + t)
      val d = GraphOps.bfs(g, Seq(0))
      assert(d.forall(_ >= 0), s"trial $t")
      for (u <- 0 until g.n; i <- 0 until g.degree(u))
        assert(math.abs(d(u) - d(g.neighbor(u, i))) <= 1, s"trial $t edge $u")
    }
  }

  test("property: Wilson forests are valid for random roots") {
    for (t <- 0 until trials) {
      val g = randomConnected(3000 + t)
      val rng = new java.util.SplittableRandom(t)
      val root = rng.nextInt(g.n)
      val f = sampleForest(g, Set(root), rng)
      for (u <- 0 until g.n if u != root) {
        var x = u; var steps = 0
        while (x != root && steps <= g.n) { x = f.parent(x); steps += 1 }
        assert(x == root, s"trial $t: node $u stuck")
      }
      val pos = new Array[Int](g.n)
      f.order.zipWithIndex.foreach { case (u, i) => pos(u) = i }
      for (u <- f.order if f.parent(u) != root)
        assert(pos(u) < pos(f.parent(u)), s"trial $t: order violated at $u")
    }
  }

  test("property: Laplacian submatrix inverse is entrywise nonnegative (M-matrix)") {
    for (t <- 0 until trials) {
      val g = randomConnected(4000 + t)
      val s = Set(t % g.n)
      if (g.n > 1) {
        val (keep, inv) = Dense.submatrixInverse(g, s)
        for (i <- keep.indices; j <- keep.indices)
          assert(Dense.get(inv, keep.length, i, j) > -1e-12, s"trial $t entry ($i,$j)")
      }
    }
  }

  test("property: trace identity Δ(u,S) = Tr drop (Eq. 5) on random graphs") {
    for (t <- 0 until trials) {
      val g = randomConnected(5000 + t)
      if (g.n >= 4) {
        val rng = new java.util.SplittableRandom(t)
        val s0 = rng.nextInt(g.n)
        var u = rng.nextInt(g.n); while (u == s0) u = rng.nextInt(g.n)
        val s = Set(s0)
        val delta = repro.core.Cfcc.exactDelta(g, s)(u)
        val direct = repro.core.Cfcc.traceInvExact(g, s) - repro.core.Cfcc.traceInvExact(g, s + u)
        assert(math.abs(delta - direct) < 1e-7 * math.max(1.0, direct), s"trial $t")
      }
    }
  }

  test("property: C(S) monotone under adding any node") {
    for (t <- 0 until trials) {
      val g = randomConnected(6000 + t)
      if (g.n >= 4) {
        val rng = new java.util.SplittableRandom(t)
        val a = rng.nextInt(g.n)
        var b = rng.nextInt(g.n); while (b == a) b = rng.nextInt(g.n)
        assert(repro.core.Cfcc.exact(g, Set(a, b)) > repro.core.Cfcc.exact(g, Set(a)) - 1e-12,
               s"trial $t")
      }
    }
  }

  test("property: downdate equals fresh inversion on random graphs") {
    for (t <- 0 until trials) {
      val g = randomConnected(7000 + t)
      if (g.n >= 4) {
        val rng = new java.util.SplittableRandom(t)
        val s0 = rng.nextInt(g.n)
        val keep = (0 until g.n).filterNot(_ == s0).toArray
        val lap = Dense.laplacian(g)
        val m = Dense.inverse(Dense.submatrix(lap, g.n, keep), keep.length)
        val victim = rng.nextInt(keep.length)
        val down = Dense.downdate(m, keep.length, victim)
        val keep2 = keep.patch(victim, Nil, 1)
        val fresh = Dense.inverse(Dense.submatrix(lap, g.n, keep2), keep2.length)
        assert(maxAbsDiff(down, fresh) < 1e-7, s"trial $t")
      }
    }
  }

  test("property: union-find components match BFS reachability") {
    for (t <- 0 until trials) {
      val rng = new java.util.SplittableRandom(8000 + t)
      val n = 2 + rng.nextInt(29)
      val mEdges = rng.nextInt(41)
      val edges = (0 until mEdges).map(_ => (rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      val g = CsrGraph.fromEdges(n, edges)
      val comp = GraphOps.unionFindComponents(n, edges)
      for (start <- 0 until math.min(n, 5)) {
        val d = GraphOps.bfs(g, Seq(start))
        for (u <- 0 until n)
          assert((d(u) >= 0) == (comp(u) == comp(start)), s"trial $t reach($start,$u)")
      }
    }
  }

  test("property: resistance distance is a metric (triangle inequality) on random graphs") {
    for (t <- 0 until 10) {
      val g = randomConnected(9000 + t)
      if (g.n >= 3) {
        val lap = Dense.laplacian(g)
        val pinv = Dense.pseudoinverse(lap, g.n)
        def r(i: Int, j: Int): Double =
          Dense.get(pinv, g.n, i, i) + Dense.get(pinv, g.n, j, j) - 2 * Dense.get(pinv, g.n, i, j)
        val rng = new java.util.SplittableRandom(t)
        for (_ <- 0 until 10) {
          val a = rng.nextInt(g.n); val b = rng.nextInt(g.n); val c = rng.nextInt(g.n)
          assert(r(a, b) + r(b, c) >= r(a, c) - 1e-9, s"trial $t: R($a,$c) > R($a,$b)+R($b,$c)")
          assert(r(a, b) >= -1e-12 && math.abs(r(a, a)) < 1e-9)
        }
      }
    }
  }
}
