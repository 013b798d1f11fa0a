package repro.forest

import repro.SparkSpec
import repro.TestKit.sampleForest
import repro.graph.{CsrGraph, GraphGen, GraphOps}
import repro.linalg.Dense

class WilsonSpec extends SparkSpec {

  private lazy val karate = CsrGraph.fromDataFrame(GraphGen.karate(spark))

  private def checkForestValid(g: CsrGraph, roots: Set[Int], f: Wilson.Forest): Unit = {
    val isRoot = roots
    // parents are graph neighbors; walking up from any node reaches a root
    for (u <- 0 until g.n if !isRoot.contains(u)) {
      val p = f.parent(u)
      assert((0 until g.degree(u)).exists(i => g.neighbor(u, i) == p), s"π($u)=$p not a neighbor")
      var x = u; var steps = 0
      while (!isRoot.contains(x) && steps <= g.n) { x = f.parent(x); steps += 1 }
      assert(isRoot.contains(x), s"node $u does not reach a root (cycle?)")
    }
    for (r <- roots) assert(f.parent(r) == -1)
    // order contains exactly the non-roots, each before its parent
    assert(f.order.toSet == (0 until g.n).filterNot(isRoot.contains).toSet)
    val pos = new Array[Int](g.n)
    f.order.zipWithIndex.foreach { case (u, i) => pos(u) = i }
    for (u <- f.order if !isRoot.contains(f.parent(u)))
      assert(pos(u) < pos(f.parent(u)), s"$u not before its parent ${f.parent(u)}")
  }

  for (seed <- 0 until 10) {
    test(s"sampled forest is valid on karate, roots={0}, seed=$seed") {
      val rng = new java.util.SplittableRandom(seed)
      checkForestValid(karate, Set(0), sampleForest(karate, Set(0), rng))
    }
  }

  for (roots <- Seq(Set(0, 33), Set(1, 2, 3, 4), Set(5))) {
    test(s"sampled forest is valid on karate with roots=$roots") {
      val rng = new java.util.SplittableRandom(77)
      for (_ <- 0 until 5) checkForestValid(karate, roots, sampleForest(karate, roots, rng))
    }
  }

  test("sampled forest is valid on a grid with multiple roots") {
    val g = CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 9, 9))
    val rng = new java.util.SplittableRandom(5)
    for (_ <- 0 until 5) checkForestValid(g, Set(0, 40, 80), sampleForest(g, Set(0, 40, 80), rng))
  }

  test("forest distribution on C4 with one root matches the uniform spanning tree law") {
    // Cycle 0-1-2-3-0 rooted at 0: spanning trees = remove any one edge (4 trees,
    // each equally likely). Check empirical frequencies of π(2) (either 1 or 3;
    // by symmetry 1/2 each) and of the tree where edge (0,1) is absent, etc.
    val g = CsrGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3), (0, 3)))
    val rng = new java.util.SplittableRandom(123)
    val trials = 40000
    var p2is1 = 0
    val treeCount = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    for (_ <- 0 until trials) {
      val f = sampleForest(g, Set(0), rng)
      if (f.parent(2) == 1) p2is1 += 1
      val sig = (1 to 3).map(f.parent).mkString(",")
      treeCount(sig) += 1
    }
    assert(math.abs(p2is1.toDouble / trials - 0.5) < 0.02)
    assert(treeCount.size == 4, s"expected 4 distinct trees, got ${treeCount.keys}")
    treeCount.values.foreach(c => assert(math.abs(c.toDouble / trials - 0.25) < 0.02))
  }

  test("rooted probabilities match F = −L_UU^{-1} L_UT (Lemma 4.2)") {
    val g = karate
    val s = Set(13)
    val t = Array(33, 0) // two hubs
    val roots = s ++ t
    // exact F via dense algebra
    val uList = (0 until g.n).filterNot(roots.contains).toArray
    val lap = Dense.laplacian(g)
    val luu = Dense.submatrix(lap, g.n, uList)
    val luuInv = Dense.inverse(luu, uList.length)
    val exactF = Array.tabulate(uList.length, t.length) { (i, j) =>
      var acc = 0.0
      for ((v, vi) <- uList.zipWithIndex)
        acc += Dense.get(luuInv, uList.length, i, vi) * Dense.get(lap, g.n, v, t(j))
      -acc
    }
    // empirical rooted frequencies
    val rng = new java.util.SplittableRandom(99)
    val trials = 20000
    val counts = Array.ofDim[Int](g.n, t.length)
    for (_ <- 0 until trials) {
      val f = sampleForest(g, roots, rng)
      val rootOf = new Array[Int](g.n)
      for (k <- f.order.indices.reverse) {
        val u = f.order(k); val p = f.parent(u)
        rootOf(u) = if (roots.contains(p)) p else rootOf(p)
      }
      for (u <- f.order; j <- t.indices if rootOf(u) == t(j)) counts(u)(j) += 1
    }
    for ((u, i) <- uList.zipWithIndex; j <- t.indices) {
      val emp = counts(u)(j).toDouble / trials
      assert(math.abs(emp - exactF(i)(j)) < 0.03, s"F[$u][${t(j)}] emp=$emp exact=${exactF(i)(j)}")
    }
  }

  test("wrapper with Set roots equals array-based sampling for the same seed") {
    val g = karate
    val f1 = sampleForest(g, Set(3, 8), new java.util.SplittableRandom(42))
    val isRoot = new Array[Boolean](g.n); isRoot(3) = true; isRoot(8) = true
    val f2 = Wilson.sample(g, isRoot, 2, new java.util.SplittableRandom(42))
    assert(f1.parent.toSeq == f2.parent.toSeq && f1.order.toSeq == f2.order.toSeq)
  }
}
