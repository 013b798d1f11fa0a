package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{ApproxGreedy, ForestCfcm, SchurCfcm}
import repro.forest.ForestSampler
import repro.graph.CsrGraph
import repro.perfbench.Workloads._

/** The traced greedy call. FORESTCFCM and SCHURCFCM are re-driven from
  * their public per-iteration functions (`firstPick`, `selectT`,
  * `forestDelta`, `schurDelta`) so each phase gets its own span and Spark job
  * group; the argmax below repeats the one in `run`, ties to the lowest id,
  * and the benchmark checks that the picks equal the untraced `run` call's.
  * APPROXGREEDY has no public per-iteration function, so its one `run` call is
  * a single phase.
  */
object Redrive {

  /** One sampling phase: its span, Spark job group, forests sampled and the
    * phase's forest budget (forests < budget means the adaptive stop fired).
    */
  final case class Phase(span: Trace.Span, group: String, forests: Long, budget: Long = 0L)

  /** @param t SCHURCFCM's auxiliary root set T (empty otherwise) */
  final case class Traced(picks: Seq[Int], phases: Seq[Phase], work: Long, t: Array[Int] = Array.empty)

  def run(spark: SparkSession, trace: Trace, w: Workload, g: CsrGraph, k: Int,
          algoSeed: Long): Traced = {
    val sc = spark.sparkContext
    val phases = Seq.newBuilder[Phase]
    def phase[A](name: String, group: String)(forests: A => Long)(body: => A): A = {
      val id = trace.spans.length
      sc.setJobGroup(group, name)
      val a = try trace.span(name)(body) finally sc.clearJobGroup()
      phases += Phase(trace.spans(id), group, forests(a))
      a
    }

    w.algo match {
      case Approx =>
        val r = phase("core.approx_run", "approx")((_: ApproxGreedy.Result) => 0L) {
          ApproxGreedy.run(spark, g, k, w.eps, algoSeed)
        }
        Traced(r.picks, phases.result(), r.solves)
      case Forest | Schur =>
        val cfg = w.config(algoSeed)
        val t = if (w.algo == Schur) trace.span("core.select_t")(SchurCfcm.selectT(g)) else Array.empty[Int]
        val (first, _) = phase("core.first_pick", "p0")((r: (Int, Long)) => r._2) {
          ForestCfcm.firstPick(spark, g, cfg)
        }
        val picked = scala.collection.mutable.LinkedHashSet(first)
        var i = 1
        while (i < k) {
          val s = picked.toSet
          val est = phase("core.delta", s"p$i")((e: ForestCfcm.DeltaEstimates) => e.forests) {
            if (w.algo == Schur) SchurCfcm.schurDelta(spark, g, s, t, cfg, i)
            else ForestCfcm.forestDelta(spark, g, s, cfg, i)
          }
          picked += trace.span("core.argmax")(argmax(est.delta, picked))
          i += 1
        }
        val ps = phases.result()
        Traced(picked.toSeq, ps, ps.map(_.forests).sum, t)
    }
  }

  private def argmax(delta: Array[Double], picked: scala.collection.Set[Int]): Int = {
    var best = -1; var bestD = Double.NegativeInfinity
    var u = 0
    while (u < delta.length) {
      if (!picked.contains(u) && delta(u) > bestD) { bestD = delta(u); best = u }
      u += 1
    }
    best
  }

  /** Each sampling phase's forest budget, worked out after the timed call;
    * phase i samples with the first i picks as roots. SCHURDELTA scales the
    * shared budget by d_max(S∪T)/d_max(S), clamped to [0.3, 1], and falls
    * back to FORESTDELTA's budget when T \ S is empty.
    *
    * The program keeps this policy inside `SchurCfcm.schurDelta` and does not
    * expose it, so the formula below is a copy of the one there; if that
    * one changes, this copy must follow or `forest.sampler.stopped_early` is
    * wrong on `schur-ba17k`.
    */
  def withBudgets(w: Workload, g: CsrGraph, algoSeed: Long, r: Traced): Traced = if (w.algo == Approx) r else {
    val cfg = w.config(algoSeed)
    val full = ForestSampler.budget(cfg.eps, g.n, cfg.r0)
    def budget(i: Int): Long = {
      val s = r.picks.take(i).toSet
      val tList = r.t.filterNot(s.contains)
      if (w.algo != Schur || i == 0 || tList.isEmpty) full
      else {
        val ratio = (SchurCfcm.residualMaxDegree(g, s ++ tList) + 1.0) / (SchurCfcm.residualMaxDegree(g, s) + 1.0)
        math.max(64L, (full * math.min(1.0, math.max(0.3, ratio))).toLong)
      }
    }
    r.copy(phases = r.phases.zipWithIndex.map { case (p, i) => p.copy(budget = budget(i)) })
  }
}
