package repro.graph

import repro.SparkSpec
import repro.TestKit.{diameterExact, maxDegree}

class GraphOpsSpec extends SparkSpec {

  private lazy val karate = CsrGraph.fromDataFrame(GraphGen.karate(spark))

  test("bfs distances match Floyd–Warshall on karate") {
    val g = karate
    val n = g.n
    val inf = 1 << 20
    val d = Array.fill(n, n)(inf)
    for (u <- 0 until n) d(u)(u) = 0
    for ((a, b) <- g.edgeList) { d(a)(b) = 1; d(b)(a) = 1 }
    for (t <- 0 until n; i <- 0 until n; j <- 0 until n)
      if (d(i)(t) + d(t)(j) < d(i)(j)) d(i)(j) = d(i)(t) + d(t)(j)
    for (s <- Seq(0, 7, 33)) {
      val bfs = GraphOps.bfs(g, Seq(s))
      for (u <- 0 until n) assert(bfs(u) == d(s)(u), s"dist($s,$u)")
    }
  }

  test("multi-source bfs is the min of single-source distances") {
    val g = karate
    val srcs = Seq(3, 25)
    val multi = GraphOps.bfs(g, srcs)
    val singles = srcs.map(s => GraphOps.bfs(g, Seq(s)))
    for (u <- 0 until g.n) assert(multi(u) == singles.map(_(u)).min)
  }

  test("bfsTree: order is a valid BFS order and parents are tree edges") {
    val g = karate
    val (order, parent) = GraphOps.bfsTree(g, Seq(0))
    assert(order.toSet == (0 until g.n).toSet)
    val dist = GraphOps.bfs(g, Seq(0))
    // BFS order is non-decreasing in distance
    val dists = order.map(dist)
    assert(dists.zip(dists.tail).forall { case (a, b) => a <= b })
    for (u <- 0 until g.n if parent(u) >= 0) {
      assert(dist(u) == dist(parent(u)) + 1)
      assert((0 until g.degree(u)).exists(i => g.neighbor(u, i) == parent(u)))
    }
  }

  test("bfsTree visits the sources in the order given, a repeated one once, then FIFO in CSR order") {
    // adjacency: 0:[1,2] 1:[0,3] 2:[0,3] 3:[1,2,4] 4:[3,5] 5:[4]
    val g = CsrGraph.fromEdges(6, Seq((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)))
    val (order, parent) = GraphOps.bfsTree(g, Seq(2, 0, 2))
    assert(order.toSeq == Seq(2, 0, 3, 1, 4, 5))
    assert(parent.toSeq == Seq(-1, 0, -1, 2, 3, 4))
    assert(GraphOps.bfs(g, Seq(2, 0, 2)).toSeq == Seq(0, 1, 0, 1, 2, 3))
  }

  test("bfs marks unreached nodes -1 and bfsTree fails, saying how many nodes it reached") {
    val g = CsrGraph.fromEdges(7, Seq((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (5, 6)))
    assert(GraphOps.bfs(g, Seq(0)).toSeq == Seq(0, 1, 1, -1, -1, -1, -1))
    val e = intercept[IllegalArgumentException](GraphOps.bfsTree(g, Seq(0)))
    assert(e.getMessage.contains("reached 3 of 7"), e.getMessage)
  }

  test("diameterExact on known graphs") {
    assert(diameterExact(karate) == 5)
    val grid = CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 4, 6))
    assert(diameterExact(grid) == 3 + 5)
  }

  test("diameterEstimate is a lower bound and exact on grids/rings") {
    val grid = CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 5, 7))
    assert(GraphOps.diameterEstimate(grid) == diameterExact(grid))
    val karateEst = GraphOps.diameterEstimate(karate)
    assert(karateEst <= 5 && karateEst >= 4)
  }

  test("unionFindComponents: two cliques plus bridge") {
    val edges = Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
    val comp = GraphOps.unionFindComponents(6, edges)
    assert(comp(0) == comp(1) && comp(1) == comp(2))
    assert(comp(3) == comp(4) && comp(4) == comp(5))
    assert(comp(0) != comp(3))
    val joined = GraphOps.unionFindComponents(6, edges :+ ((2, 3)))
    assert(joined.distinct.length == 1)
  }

  test("largestComponent keeps the biggest piece and relabels densely") {
    val df = GraphGen.erdosRenyi(spark, 60, 50, seed = 4)
    val g0 = CsrGraph.fromDataFrame(df)
    val uf = GraphOps.unionFindComponents(g0.n, g0.edgeList)
    val sizes = uf.groupBy(identity).map(_._2.length)
    val g = GraphOps.largestComponent(df)
    assert(g.n == sizes.max)
    assert(GraphOps.bfs(g, Seq(0)).forall(_ >= 0))
  }

  test("degreePeeling removes hubs first and residual degrees decrease") {
    val g = CsrGraph.fromDataFrame(GraphGen.barabasiAlbert(spark, 500, 3, 7))
    val (order, residual) = GraphOps.degreePeeling(g, 20)
    assert(order(0) == g.maxDegreeNode)
    assert(order.distinct.length == order.length)
    for (i <- 1 until residual.length) assert(residual(i) <= residual(i - 1) + 0) // non-increasing-ish
    assert(residual.last <= maxDegree(g))
  }

  test("tStar balances |T| against the residual max degree") {
    val g = CsrGraph.fromDataFrame(GraphGen.barabasiAlbert(spark, 1000, 3, 7))
    val c = GraphOps.tStar(g, 2048).length
    val (_, residual) = GraphOps.degreePeeling(g, math.min(2048, g.n - 1))
    val gap = math.abs(c - residual(c - 1))
    // no other prefix does strictly better
    for (c2 <- 1 to residual.length)
      assert(gap <= math.abs(c2 - residual(c2 - 1)), s"c=$c beaten by $c2")
  }
}
