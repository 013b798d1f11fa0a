package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.{CsrGraph, GraphGen, GraphOps}

/** Benchmark harness shared by the `bench/` suites and the `jobs/`
  * spark-submit entrypoints: the synthetic graph suite standing in for the
  * paper's Table II datasets, timing helpers and table rendering.
  *
  * Offline substitution (DESIGN.md): each row mirrors a paper dataset's
  * *shape* — node count (scaled where the original exceeds laptop reach),
  * density m/n, and regime (scale-free hubs vs high-diameter road grid) —
  * because those are exactly the drivers in the paper's complexity analysis.
  */
object Harness {

  /** One benchmark graph: a stand-in for a paper Table II row. */
  final case class GraphSpec(
      name: String,
      paperName: String,
      build: SparkSession => CsrGraph,
      runExact: Boolean,
      runApprox: Boolean,
  )

  /** Synthetic suite mirroring Table II (ascending n). `full = true` adds the
    * largest rows (longer wall time).
    */
  def tableIISuite(full: Boolean): Seq[GraphSpec] = {
    val base = Seq(
      GraphSpec("road-1k", "Euroroads (1,039n; τ=62)",
        s => CsrGraph.fromDataFrame(GraphGen.grid2d(s, 32, 32)), runExact = true, runApprox = true),
      GraphSpec("ba-2k", "Hamsterster (2,000n; m/n≈8)",
        s => GraphOps.largestComponent(GraphGen.barabasiAlbert(s, 2000, 8, 2001)), runExact = true, runApprox = true),
      GraphSpec("ws-4k", "GR-QC (4,158n; m/n≈3)",
        s => GraphOps.largestComponent(GraphGen.wattsStrogatz(s, 4158, 3, 0.1, 4158)), runExact = false, runApprox = true),
      GraphSpec("ba-4k-dense", "Facebook (4,039n; m/n≈22)",
        s => GraphOps.largestComponent(GraphGen.barabasiAlbert(s, 4039, 22, 4039)), runExact = false, runApprox = true),
      GraphSpec("ba-6k", "Routeviews (6,474n; m/n≈2)",
        s => GraphOps.largestComponent(GraphGen.barabasiAlbert(s, 6474, 2, 6474)), runExact = false, runApprox = true),
      GraphSpec("ba-9k", "HEP-Th (8,638n; m/n≈3)",
        s => GraphOps.largestComponent(GraphGen.barabasiAlbert(s, 8638, 3, 8638)), runExact = false, runApprox = true),
      GraphSpec("ba-18k", "Astro-Ph (17,903n; m/n≈11)",
        s => GraphOps.largestComponent(GraphGen.barabasiAlbert(s, 17903, 11, 17903)), runExact = false, runApprox = false),
      GraphSpec("ba-26k", "CAIDA (26,475n; m/n≈2)",
        s => GraphOps.largestComponent(GraphGen.barabasiAlbert(s, 26475, 2, 26475)), runExact = false, runApprox = false),
      GraphSpec("ba-34k", "EmailEnron (33,696n; m/n≈5)",
        s => GraphOps.largestComponent(GraphGen.barabasiAlbert(s, 33696, 5, 33696)), runExact = false, runApprox = false),
    )
    val large = Seq(
      GraphSpec("ba-57k", "Brightkite (56,739n; m/n≈4)",
        s => GraphOps.largestComponent(GraphGen.barabasiAlbert(s, 56739, 4, 56739)), runExact = false, runApprox = false),
      GraphSpec("ba-100k-dense", "buzznet (101,163n; m/n≈27)",
        s => GraphOps.largestComponent(GraphGen.barabasiAlbert(s, 101163, 27, 101163)), runExact = false, runApprox = false),
    )
    if (full) base ++ large else base
  }

  /** Wall-clock seconds of a thunk (result discarded). */
  def time[A](thunk: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = thunk
    (a, (System.nanoTime() - t0) / 1e9)
  }

  final case class TableIIRow(
      name: String, paperName: String, n: Int, m: Long, tau: Int, tStar: Int,
      exactS: Option[Double], approxS: Option[Double],
      forestS: Map[Double, Double], schurS: Map[Double, Double],
  )

  /** Run the Table II experiment on one graph. */
  def tableIIRow(spark: SparkSession, spec: GraphSpec, k: Int, epsList: Seq[Double],
                 log: String => Unit): TableIIRow = {
    val (g, tBuild) = time(spec.build(spark))
    val tau = GraphOps.diameterEstimate(g)
    val tStar = GraphOps.tStar(g, 320)
    log(f"[${spec.name}] built n=${g.n} m=${g.m} tau=$tau |T*|=$tStar (${tBuild}%.1fs)")
    val exactS = if (spec.runExact) {
      val (_, t) = time(ExactGreedy.run(g, k)); log(f"[${spec.name}] EXACT ${t}%.2fs"); Some(t)
    } else None
    val approxS = if (spec.runApprox) {
      val (_, t) = time(ApproxGreedy.run(spark, g, k, 0.2)); log(f"[${spec.name}] APPROX ${t}%.2fs"); Some(t)
    } else None
    val forestS = epsList.map { eps =>
      val (_, t) = time(ForestCfcm.run(spark, g, k, ForestCfcm.Config(eps)))
      log(f"[${spec.name}] FORESTCFCM eps=$eps ${t}%.2fs")
      eps -> t
    }.toMap
    val schurS = epsList.map { eps =>
      val (_, t) = time(SchurCfcm.run(spark, g, k, ForestCfcm.Config(eps)))
      log(f"[${spec.name}] SCHURCFCM eps=$eps ${t}%.2fs")
      eps -> t
    }.toMap
    TableIIRow(spec.name, spec.paperName, g.n, g.m, tau, tStar, exactS, approxS, forestS, schurS)
  }

  /** Render Table II rows as a markdown table (same columns as the paper). */
  def renderTableII(rows: Seq[TableIIRow], epsList: Seq[Double]): String = {
    val sb = new StringBuilder
    def fmt(o: Option[Double]): String = o.map(t => f"$t%.2f").getOrElse("—")
    sb.append("| Network (stand-in for) | n | m | τ | \\|T*\\| | EXACT | APPROX |")
    epsList.foreach(e => sb.append(s" FOREST ε=$e |"))
    epsList.foreach(e => sb.append(s" SCHUR ε=$e |"))
    sb.append("\n|---|---|---|---|---|---|---|")
    epsList.foreach(_ => sb.append("---|")); epsList.foreach(_ => sb.append("---|"))
    sb.append("\n")
    rows.foreach { r =>
      sb.append(s"| ${r.name} (${r.paperName}) | ${r.n} | ${r.m} | ${r.tau} | ${r.tStar} " +
                s"| ${fmt(r.exactS)} | ${fmt(r.approxS)} |")
      epsList.foreach(e => sb.append(f" ${r.forestS(e)}%.2f |"))
      epsList.foreach(e => sb.append(f" ${r.schurS(e)}%.2f |"))
      sb.append("\n")
    }
    sb.toString
  }

  /** Effectiveness comparison (the paper's Figs. 1–3 rendered as a table):
    * `C(S_k)` per algorithm, exact-scored (dense) — small graphs only.
    */
  final case class EffRow(graph: String, k: Int, scores: Seq[(String, Double)])

  def effectivenessRows(spark: SparkSession, name: String,
                        edges: org.apache.spark.sql.DataFrame, ks: Seq[Int],
                        eps: Double, withOptimum: Boolean,
                        log: String => Unit): Seq[EffRow] = {
    val g = GraphOps.largestComponent(edges)
    val cfg = ForestCfcm.Config(eps, r0 = 4.0, seed = 7)
    val kMax = ks.max
    val exact = ExactGreedy.run(g, kMax)
    val approx = ApproxGreedy.run(spark, g, kMax, eps)
    val forest = ForestCfcm.run(spark, g, kMax, cfg)
    val schur = SchurCfcm.run(spark, g, kMax, cfg)
    val deg = (0 until g.n).sortBy(u => (-g.degree(u), u)).take(kMax)
    val top = Heuristics.topCfcc(spark, g, kMax)
    ks.map { k =>
      def c(picks: Seq[Int]): Double = Cfcc.exact(g, picks.take(k).toSet)
      val base = Seq(
        "EXACT" -> c(exact.picks), "APPROX" -> c(approx.picks),
        "FORESTCFCM" -> c(forest.picks), "SCHURCFCM" -> c(schur.picks),
        "DEGREE" -> c(deg), "TOP-CFCC" -> c(top),
      )
      val withOpt =
        if (withOptimum && k <= 3) ("OPTIMUM" -> (g.n / Exhaustive.optimum(g, k).trace)) +: base
        else base
      log(s"[$name] k=$k " + withOpt.map { case (a, v) => f"$a=$v%.4f" }.mkString(" "))
      EffRow(name, k, withOpt)
    }
  }

  def renderEff(rows: Seq[EffRow]): String = {
    val algos = rows.flatMap(_.scores.map(_._1)).distinct
    val sb = new StringBuilder
    sb.append("| Graph | k |").append(algos.map(a => s" $a |").mkString).append("\n")
    sb.append("|---|---|").append(algos.map(_ => "---|").mkString).append("\n")
    rows.foreach { r =>
      val m = r.scores.toMap
      sb.append(s"| ${r.graph} | ${r.k} |")
      algos.foreach(a => sb.append(m.get(a).map(v => f" $v%.4f |").getOrElse(" — |")))
      sb.append("\n")
    }
    sb.toString
  }

  /** One row of the ε sweep: FORESTCFCM and SCHURCFCM wall time, forests
    * sampled and relative `C(S)` gap to EXACT greedy.
    */
  final case class EpsRow(graph: String, eps: Double, forestS: Double, schurS: Double,
                          forestForests: Long, schurForests: Long,
                          forestRel: Double, schurRel: Double)

  /** The ε sweep (the paper's Figs. 4–5 as a table): ε ∈ [0.15, 0.4] on
    * road-1k and ba-2k, rows by graph and then by decreasing ε.
    */
  def epsilonSweep(spark: SparkSession, k: Int, log: String => Unit): Seq[EpsRow] = {
    val graphs = Seq(
      "road-1k" -> (() => CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 32, 32))),
      "ba-2k" -> (() => GraphOps.largestComponent(GraphGen.barabasiAlbert(spark, 2000, 8, 2001))),
    )
    graphs.flatMap { case (name, build) =>
      val g = build()
      val cExact = g.n / ExactGreedy.run(g, k).traces.last
      Seq(0.4, 0.3, 0.2, 0.15).map { eps =>
        val cfg = ForestCfcm.Config(eps, seed = 17)
        val (f, fT) = time(ForestCfcm.run(spark, g, k, cfg))
        val (s, sT) = time(SchurCfcm.run(spark, g, k, cfg))
        val fRel = math.abs(cExact - Cfcc.exact(g, f.picks.toSet)) / cExact
        val sRel = math.abs(cExact - Cfcc.exact(g, s.picks.toSet)) / cExact
        log(f"[$name] eps=$eps forest=$fT%.2fs (rel $fRel%.4f) schur=$sT%.2fs (rel $sRel%.4f)")
        EpsRow(name, eps, fT, sT, f.forests, s.forests, fRel, sRel)
      }
    }
  }

  def renderEps(rows: Seq[EpsRow]): String = {
    val sb = new StringBuilder
    sb.append("| Graph | ε | FOREST time (s) | SCHUR time (s) | FOREST relΔ vs EXACT | SCHUR relΔ vs EXACT |\n")
    sb.append("|---|---|---|---|---|---|\n")
    rows.foreach { r =>
      sb.append(f"| ${r.graph} | ${r.eps} | ${r.forestS}%.2f | ${r.schurS}%.2f | ${r.forestRel}%.4f | ${r.schurRel}%.4f |\n")
    }
    sb.toString
  }

  /** Write a results file under bench_results/ (created on demand). */
  def writeResults(fileName: String, content: String): java.nio.file.Path = {
    val dir = java.nio.file.Paths.get(sys.props.getOrElse("repro.results.dir", "bench_results"))
    java.nio.file.Files.createDirectories(dir)
    val p = dir.resolve(fileName)
    java.nio.file.Files.write(p, content.getBytes(java.nio.charset.StandardCharsets.UTF_8))
    p
  }
}
