package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit.maxDegree

class CsrGraphSpec extends AnyFunSuite {

  test("fromEdges deduplicates, drops self-loops, canonicalizes orientation") {
    val g = CsrGraph.fromEdges(4, Seq((0, 1), (1, 0), (0, 1), (2, 2), (1, 2), (3, 2)))
    assert(g.m == 3)
    assert(g.degree(0) == 1 && g.degree(1) == 2 && g.degree(2) == 2 && g.degree(3) == 1)
  }

  test("neighbors are sorted and symmetric") {
    val g = CsrGraph.fromEdges(5, Seq((0, 3), (0, 1), (0, 2), (1, 2), (3, 4)))
    assert((0 until g.degree(0)).map(g.neighbor(0, _)) == Seq(1, 2, 3))
    for (u <- 0 until g.n; i <- 0 until g.degree(u)) {
      val v = g.neighbor(u, i)
      assert((0 until g.degree(v)).exists(j => g.neighbor(v, j) == u), s"symmetry $u-$v")
    }
  }

  test("edgeList round-trips through fromEdges") {
    val edges = Seq((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))
    val g = CsrGraph.fromEdges(4, edges)
    val g2 = CsrGraph.fromEdges(4, g.edgeList.toSeq)
    assert(g.edgeList.toSeq.sorted == g2.edgeList.toSeq.sorted)
    assert(g.edgeList.length == 5)
  }

  test("maxDegree and maxDegreeNode") {
    val g = CsrGraph.fromEdges(5, Seq((0, 1), (0, 2), (0, 3), (1, 2), (3, 4)))
    assert(maxDegree(g) == 3)
    assert(g.maxDegreeNode == 0)
  }

  test("maxDegreeNode tie-breaks to smallest id") {
    val g = CsrGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    assert(g.maxDegreeNode == 0)
  }

  test("out-of-range edges are rejected") {
    intercept[IllegalArgumentException](CsrGraph.fromEdges(3, Seq((0, 5))))
  }

  test("degrees array matches per-node degree") {
    val g = CsrGraph.fromEdges(6, Seq((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)))
    assert(g.degrees.toSeq == (0 until 6).map(g.degree))
    assert(g.degrees.sum == 2 * g.m)
  }
}
