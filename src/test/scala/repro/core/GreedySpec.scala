package repro.core

import repro.SparkSpec
import repro.graph.{CsrGraph, GraphGen}

class GreedySpec extends SparkSpec {

  test("argmax breaks ties to the lowest id, never re-picks a node and ignores −∞") {
    val ninf = Double.NegativeInfinity
    assert(Greedy.argmax(Array(1.0, 3.0, 3.0, 2.0), Set.empty) == 1)
    assert(Greedy.argmax(Array(1.0, 3.0, 3.0, 2.0), Set(1)) == 2)
    assert(Greedy.argmax(Array(ninf, -5.0, ninf), Set.empty) == 1)
    assert(Greedy.argmax(Array(ninf, 7.0), Set(1)) == -1)
  }

  test("firstPick is the argmin of x with x_s ≡ 0, ties to s and then to the lowest id") {
    // x(s) is ignored: s scores 0 whatever the array holds
    assert(Greedy.firstPick(Array(1.0, -9.0, 2.0), s = 1) == 1)
    // no score below 0: s wins, also against a 0 at a lower id
    assert(Greedy.firstPick(Array(0.0, 3.0, 0.0), s = 2) == 2)
    // a negative score beats s; equal negatives go to the lowest id
    assert(Greedy.firstPick(Array(0.5, -1.0, 0.0, -1.0), s = 2) == 1)
  }

  test("run picks first, then the argmax of each iteration's Δ given the picks so far") {
    // Δ(u) = u mod 3, and −∞ on ids below 3 once 5 is picked
    val seen = Seq.newBuilder[(Set[Int], Int)]
    val picks = Greedy.run(4, first = 4) { (s, i) =>
      seen += ((s, i))
      Array.tabulate(8)(u => if (s(5) && u < 3) Double.NegativeInfinity else (u % 3).toDouble)
    }
    assert(picks == Seq(4, 2, 5, 7))
    assert(seen.result() == Seq((Set(4), 1), (Set(4, 2), 2), (Set(4, 2, 5), 3)))
  }

  test("run fails, naming the iteration and |S|, when every Δ outside S is −∞ or NaN") {
    for ((name, bad) <- Seq("−∞" -> Double.NegativeInfinity, "NaN" -> Double.NaN)) {
      // iteration 1 picks node 2; at iteration 2 every node outside S scores `bad`
      val e = intercept[IllegalStateException] {
        Greedy.run(4, first = 0)((s, _) => Array.tabulate(5)(u => if (s.size == 1 && u == 2) 1.0 else bad))
      }
      assert(e.getMessage.contains("iteration 2 of 4") && e.getMessage.contains("|S| = 2"), s"$name: ${e.getMessage}")
    }
  }

  test("delta is num / den, with den guarded at 1e-300") {
    assert(Greedy.delta(6.0, 3.0) == 2.0)
    assert(Greedy.delta(2.0, 0.0) == 2.0 / 1e-300)
    assert(Greedy.delta(2.0, -1.0) == 2.0 / 1e-300)
  }

  test("every greedy run rejects a bad k, an isolated node or a disconnected graph before any Spark job") {
    val karate = CsrGraph.fromDataFrame(GraphGen.karate(spark))
    // id 3 never appears in the edge list: degree 0
    val gap = CsrGraph.fromDataFrame(spark.createDataFrame(Seq((0, 1), (1, 2), (2, 4), (4, 0))).toDF("src", "dst"))
    // two triangles joined by nothing, and a pendant node on the second
    val split = CsrGraph.fromEdges(7, Seq((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (5, 6)))
    val cfg = ForestCfcm.Config(eps = 0.5)
    val runs = Seq[(String, (CsrGraph, Int) => Any)](
      "EXACT" -> ((g, k) => ExactGreedy.run(g, k)),
      "APPROXGREEDY" -> ((g, k) => ApproxGreedy.run(spark, g, k, eps = 0.5)),
      "FORESTCFCM" -> ((g, k) => ForestCfcm.run(spark, g, k, cfg)),
      "SCHURCFCM" -> ((g, k) => SchurCfcm.run(spark, g, k, cfg)))
    val inputs = Seq[(String, CsrGraph, Int, Seq[String])](
      ("k = 0", karate, 0, Seq("k = 0", "n = 34")),
      ("k = n", karate, 34, Seq("k = 34", "n = 34")),
      ("an isolated node", gap, 2, Seq("node 3 ", "dense")),
      ("a disconnected graph", split, 2, Seq("not connected", "3 of its 7 nodes")))
    for ((algo, run) <- runs; (input, g, k, words) <- inputs) {
      val (e, jobs) = countJobs(intercept[IllegalArgumentException](run(g, k)))
      assert(words.forall(e.getMessage.contains), s"$algo, $input: ${e.getMessage}")
      assert(jobs == 0, s"$algo, $input: $jobs jobs")
    }
  }
}
