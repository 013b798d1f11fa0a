package repro.forest

import repro.SparkSpec
import repro.TestKit.maxAbsDiff
import repro.core.{ApproxGreedy, ForestCfcm, SchurCfcm}
import repro.graph.{CsrGraph, GraphGen}
import repro.linalg.{Dense, Jl}

/** Spark fan-out of the forest sampler: correctness of the distributed merge
  * and the job count, not the estimator math (EstimatorSpec).
  */
class SamplerSpec extends SparkSpec {

  private lazy val karate = CsrGraph.fromDataFrame(GraphGen.karate(spark))

  test("distributed sampling merges to the requested forest count") {
    val ctx = ForestContext(karate, Set(0), Array(Array.fill(karate.n)(1.0)), wantDiag = true)
    val acc = ForestSampler.run(spark, ctx, 500, seed = 5)
    assert(acc.count == 500)
  }

  test("distributed estimates converge to dense ground truth") {
    val g = karate
    val s = Set(33)
    val ctx = ForestContext(g, s, Array(Array.fill(g.n)(1.0)), wantDiag = true)
    val acc = ForestSampler.run(spark, ctx, 20000, seed = 7)
    val (keep, inv) = Dense.submatrixInverse(g, s)
    for ((u, i) <- keep.zipWithIndex) {
      val est = acc.diagSum(u) / acc.count
      val ex = Dense.get(inv, keep.length, i, i)
      assert(math.abs(est - ex) < math.max(0.1 * ex, 0.12), s"diag($u) est=$est exact=$ex")
    }
  }

  test("same seed and budget give identical accumulator sums (determinism)") {
    val ctx = ForestContext(karate, Set(0, 1), Array(Array.fill(karate.n)(1.0)), wantDiag = true)
    val a = ForestSampler.run(spark, ctx, 256, seed = 9)
    val b = ForestSampler.run(spark, ctx, 256, seed = 9)
    assert(a.diagSum.toSeq == b.diagSum.toSeq)
    assert(a.phiSum.toSeq == b.phiSum.toSeq)
  }

  test("JL sources and Schur roots: same seed gives bit-identical sums whatever task finishes first") {
    // Slices of ~0.3 s each finish in a different order from run to run.
    // With w = 3 the JL entries ±1/√3 are inexact, so merging the φ partial
    // sums in finishing order would change their low bits.
    val g = CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 32, 32))
    val t = Array(400, 600)
    val w = 3
    val sources = Array.tabulate(w)(j => Array.tabulate(g.n)(v => Jl.entry(17, j, v, w)))
    val ctx = ForestContext(g, Set(0) ++ t, sources, wantDiag = true, t)
    val runs = Seq.fill(3)(ForestSampler.run(spark, ctx, 8000, seed = 11))
    val a = runs.head
    assert(a.count == 8000 && a.rootCnt.exists(_ > 0))
    for (b <- runs.tail) {
      assert(java.util.Arrays.equals(a.phiSum, b.phiSum))
      assert(java.util.Arrays.equals(a.diagSum, b.diagSum))
      assert(java.util.Arrays.equals(a.rootCnt, b.rootCnt))
    }
  }

  test("ApproxGreedy: same seed gives the same picks") {
    val a = ApproxGreedy.run(spark, karate, 4, eps = 0.5, seed = 21)
    val b = ApproxGreedy.run(spark, karate, 4, eps = 0.5, seed = 21)
    assert(a.picks == b.picks)
  }

  test("one Spark job per sampling phase: budget 500 runs 1 job") {
    val ctx = ForestContext(karate, Set(0), Array(Array.fill(karate.n)(1.0)), wantDiag = true)
    val (acc, jobs) = countJobs(ForestSampler.run(spark, ctx, 500, seed = 5))
    assert(acc.count == 500)
    assert(jobs == 1, s"$jobs jobs")
  }

  // ε = 0.2 gives a budget of 177 forests on karate: more than one batch
  // for a sampler that stops adaptively between batches.
  private val phaseCfg = ForestCfcm.Config(eps = 0.2)

  test("one Spark job per FORESTCFCM phase: k = 3 runs 3 jobs") {
    assert(ForestSampler.budget(phaseCfg.eps, karate.n, phaseCfg.r0) == 177)
    val (res, jobs) = countJobs(ForestCfcm.run(spark, karate, 3, phaseCfg))
    assert(res.picks.length == 3 && res.forests == 3 * 177)
    assert(jobs == 3, s"$jobs jobs")
  }

  test("one Spark job per SCHURCFCM phase: k = 3 runs 3 jobs") {
    val (res, jobs) = countJobs(SchurCfcm.run(spark, karate, 3, phaseCfg))
    assert(res.picks.length == 3)
    assert(jobs == 3, s"$jobs jobs")
  }

  test("one Spark job per APPROXGREEDY iteration: k = 3 runs 3 jobs") {
    val g = karate
    val (res, jobs) = countJobs(ApproxGreedy.run(spark, g, 3, eps = 0.5))
    assert(res.picks.length == 3)
    assert(jobs == 3, s"$jobs jobs")
  }

  test("an isolated node from a gap in the ids fails on the driver before any Spark job") {
    val edges = spark.createDataFrame(Seq((0, 1), (1, 2), (2, 4), (4, 0))).toDF("src", "dst")
    val g = CsrGraph.fromDataFrame(edges) // id 3 never appears: degree 0
    val (e, jobs) = countJobs(intercept[IllegalArgumentException] {
      ForestCfcm.run(spark, g, 2, ForestCfcm.Config(eps = 0.5))
    })
    assert(e.getMessage.contains("node 3 ") && e.getMessage.contains("dense"), e.getMessage)
    assert(jobs == 0, s"$jobs jobs")
  }

  test("a disconnected graph fails on the driver before any Spark job (FORESTCFCM, SCHURCFCM)") {
    // two triangles joined by nothing, and a pendant node on the second
    val g = CsrGraph.fromEdges(7, Seq((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (5, 6)))
    val cfg = ForestCfcm.Config(eps = 0.5)
    for ((name, run) <- Seq[(String, () => Any)]("FORESTCFCM" -> (() => ForestCfcm.run(spark, g, 2, cfg)),
                                                 "SCHURCFCM" -> (() => SchurCfcm.run(spark, g, 2, cfg)))) {
      val (e, jobs) = countJobs(intercept[IllegalArgumentException](run()))
      assert(e.getMessage.contains("not connected") && e.getMessage.contains("3 of its 7 nodes"), s"$name: ${e.getMessage}")
      assert(jobs == 0, s"$name: $jobs jobs")
    }
  }

  test("a sampling phase called directly on a disconnected graph fails on the driver before any Spark job") {
    // two triangles joined by nothing, and a pendant node on the second;
    // node 5 has the highest degree
    val g = CsrGraph.fromEdges(7, Seq((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (5, 6)))
    val cfg = ForestCfcm.Config(eps = 0.5)
    for ((name, phase, reached) <- Seq[(String, () => Any, Int)](
           ("firstPick", () => ForestCfcm.firstPick(spark, g, cfg), 4),
           ("forestDelta", () => ForestCfcm.forestDelta(spark, g, Set(0), cfg, 1), 3),
           ("schurDelta", () => SchurCfcm.schurDelta(spark, g, Set(0), Array(1), cfg, 1), 3))) {
      val (e, jobs) = countJobs(intercept[IllegalArgumentException](phase()))
      assert(e.getMessage.contains(s"reached $reached of 7"), s"$name: ${e.getMessage}")
      assert(jobs == 0, s"$name: $jobs jobs")
    }
  }

  test("budget scales with 1/ε² and is monotone") {
    assert(ForestSampler.budget(0.3, 1000) < ForestSampler.budget(0.2, 1000))
    assert(ForestSampler.budget(0.2, 1000) < ForestSampler.budget(0.15, 1000))
    assert(ForestSampler.budget(0.2, 100) <= ForestSampler.budget(0.2, 100000))
  }

  test("accumulator merge is associative on real folds") {
    val ones = Array(Array.fill(karate.n)(1.0))
    for (ctx <- Seq(ForestContext(karate, Set(2), ones, wantDiag = true),
                    ForestContext(karate, Set(2, 0, 33), ones, wantDiag = true, Array(0, 33)))) {
      /** 50 forests of each seed, folded into one accumulator. */
      def fold(seeds: Long*): ForestAcc = {
        val acc = new ForestAcc(ctx.nsrc, ctx.n, ctx.wantDiag, ctx.numT)
        val scr = new ForestScratch(ctx)
        for (seed <- seeds) {
          val rng = new java.util.SplittableRandom(seed)
          for (_ <- 0 until 50) ForestStats.fold(ctx, Wilson.sample(ctx.g, ctx.isRoot, ctx.numRoots, rng), acc, scr)
        }
        acc
      }
      val merged1 = fold(1).merge(fold(2)).merge(fold(3))
      val merged2 = fold(1).merge(fold(2).merge(fold(3)))
      assert(maxAbsDiff(merged1.diagSum, merged2.diagSum) < 1e-9)
      assert(merged1.count == 150 && merged2.count == 150)
      if (ctx.numT > 0) {
        val all = fold(1, 2, 3).rootCnt
        assert(all.exists(_ > 0))
        assert(java.util.Arrays.equals(merged1.rootCnt, all), "(a ∪ b) ∪ c")
        assert(java.util.Arrays.equals(merged2.rootCnt, all), "a ∪ (b ∪ c)")
      }
    }
  }
}
