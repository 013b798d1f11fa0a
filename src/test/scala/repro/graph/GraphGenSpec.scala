package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.TestKit.{diameterExact, maxDegree, ring}

class GraphGenSpec extends SparkSpec {

  private def checkSimpleUndirected(name: String, df: org.apache.spark.sql.DataFrame): Unit = {
    val rows = df.collect()
    rows.foreach { r =>
      assert(r.getInt(0) < r.getInt(1), s"$name: src < dst violated")
    }
    assert(rows.map(r => (r.getInt(0), r.getInt(1))).distinct.length == rows.length,
           s"$name: duplicate edges")
  }

  test("karate has 34 nodes and 78 edges, connected, degree sequence sane") {
    val df = GraphGen.karate(spark)
    checkSimpleUndirected("karate", df)
    val g = CsrGraph.fromDataFrame(df)
    assert(g.n == 34 && g.m == 78)
    assert(GraphOps.bfs(g, Seq(0)).forall(_ >= 0))
    assert(maxDegree(g) == 17)          // node 34 (id 33) has degree 17
    assert(g.degree(0) == 16)          // node 1 (id 0) has degree 16
  }

  test("karate degree aggregation matches DuckDB (Oracle)") {
    val df = GraphGen.karate(spark)
    val deg = GraphOps.degrees(df).selectExpr("cast(node as int) as node",
                                              "cast(degree as int) as degree")
    Oracle.assertEquivalent(
      deg,
      """SELECT node, count(*)::INT AS degree FROM (
        |  SELECT src::INT AS node FROM edges
        |  UNION ALL
        |  SELECT dst::INT AS node FROM edges
        |) GROUP BY node""".stripMargin,
      "edges" -> df,
    )
  }

  for ((name, n, mk) <- Seq(
    ("barabasiAlbert", 500, () => GraphGen.barabasiAlbert(spark, 500, 3, 7)),
    ("wattsStrogatz", 400, () => GraphGen.wattsStrogatz(spark, 400, 3, 0.1, 11)),
    ("grid2d", 100, () => GraphGen.grid2d(spark, 10, 10)),
    ("ring", 60, () => ring(spark, 60)),
  )) {
    test(s"$name: simple, undirected, connected, expected size") {
      val df = mk()
      checkSimpleUndirected(name, df)
      val g = CsrGraph.fromDataFrame(df)
      assert(g.n == n, s"n=${g.n}")
      assert(GraphOps.bfs(g, Seq(0)).forall(_ >= 0), s"$name disconnected")
    }
  }

  test("barabasiAlbert is deterministic in its seed") {
    val a = GraphGen.barabasiAlbert(spark, 300, 3, 42).collect().map(r => (r.getInt(0), r.getInt(1))).sorted
    val b = GraphGen.barabasiAlbert(spark, 300, 3, 42).collect().map(r => (r.getInt(0), r.getInt(1))).sorted
    assert(a.toSeq == b.toSeq)
  }

  test("barabasiAlbert has a heavy tail: hub degree far above the mean") {
    val g = CsrGraph.fromDataFrame(GraphGen.barabasiAlbert(spark, 2000, 3, 7))
    val mean = 2.0 * g.m / g.n
    assert(maxDegree(g) > 5 * mean, s"max=${maxDegree(g)} mean=$mean")
  }

  test("grid2d edge count is rows*(cols-1) + (rows-1)*cols") {
    val g = CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 7, 9))
    assert(g.m == 7 * 8 + 6 * 9)
  }

  test("grid2d edge count matches DuckDB (Oracle)") {
    val df = GraphGen.grid2d(spark, 5, 6)
    val cnt = df.agg(count(lit(1)).cast("int").as("m"))
    Oracle.assertEquivalent(cnt, "SELECT count(*)::INT AS m FROM edges", "edges" -> df)
  }

  test("erdosRenyi produces the requested number of edges") {
    val df = GraphGen.erdosRenyi(spark, 200, 500, 3)
    assert(df.count() == 500)
  }

  test("wattsStrogatz keeps degree concentrated near 2k") {
    val g = CsrGraph.fromDataFrame(GraphGen.wattsStrogatz(spark, 500, 3, 0.1, 11))
    assert(math.abs(2.0 * g.m / g.n - 6.0) < 0.5)
  }

  test("tiny stand-ins have the paper's node counts and are connected") {
    for ((name, df, n) <- Seq(
      ("zebraLike", GraphGen.zebraLike(spark), 23),
      ("contUsaLike", GraphGen.contUsaLike(spark), 49),
      ("dolphinsLike", GraphGen.dolphinsLike(spark), 62),
    )) {
      val g = GraphOps.largestComponent(df)
      assert(g.n == n, s"$name n=${g.n}")
      assert(GraphOps.bfs(g, Seq(0)).forall(_ >= 0), s"$name disconnected")
    }
  }

  test("ring diameter is n/2") {
    val g = CsrGraph.fromDataFrame(ring(spark, 40))
    assert(diameterExact(g) == 20)
  }
}
