package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{ApproxGreedy, Cfcc, ExactGreedy}
import repro.graph.CsrGraph
import repro.linalg.Jl
import repro.perfbench.Workloads._

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable

/** One benchmark run: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --state-dir <dir> [--git-sha <sha>] [--source-sha <sha>]`.
  *
  * Untraced (`--trace 0`), it sets up the workload's graph several times,
  * makes `WarmCalls` warm-up greedy calls, then times further k-pick greedy calls
  * for `--seconds` and prints the end-to-end metrics. Traced (`--trace 1`),
  * it makes a traced, re-driven call between two untraced ones, times the
  * single-thread layers on the same graph and prints the per-layer metrics.
  * The last stdout line is the result object; the full record, spans and
  * Spark jobs included, goes to `<state-dir>/records/`.
  */
object Main {

  /** Untimed greedy calls before the timed ones: the JIT is still compiling
    * Spark's, the sampler's and the solver's paths during the first calls.
    */
  val WarmCalls = 2
  /** Largest n scored with dense `Cfcc.exact`; above it, CG with fixed probes. */
  val DenseScoreMaxN = 1100
  val ScoreProbes = 32
  val ScoreSeed = 42L
  /** The EffectivenessBench FOREST gate against EXACT greedy. */
  val QualityGate = 0.88
  /** Slack when comparing Spark's millisecond event times with span times. */
  val ClockSlackMs = 10.0

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        stateDir: Path, gitSha: String, sourceSha: String)

  def parse(args: Array[String]): Args = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
         Paths.get(need("state-dir")), m.getOrElse("git-sha", "unknown"), m.getOrElse("source-sha", "unknown"))
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val w = Workloads.all.find(_.name == a.workload).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${a.workload}; one of ${Workloads.all.map(_.name).mkString(", ")}"))
    val nproc = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer")
      .config("spark.local.dir", a.stateDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", a.stateDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    try {
      val stamp = mutable.LinkedHashMap[String, Any](
        "workload" -> w.name, "seed" -> a.seed, "trace" -> a.trace, "git_sha" -> a.gitSha,
        "source_sha256" -> a.sourceSha, "nproc" -> nproc,
        "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
        "spark_master" -> spark.sparkContext.master, "k" -> K, "eps" -> w.eps)
      val run = new Run(spark, w, a, algoSeed(a.seed))
      val (metrics, record) = if (a.trace) run.traced() else run.untraced()
      val checks = run.checks
      val full = stamp ++ record ++ Seq("metrics" -> metrics.map { case (k, v) => k -> v._1 },
                                        "problems" -> checks.problems)
      val dir = Files.createDirectories(a.stateDir.resolve("records"))
      Files.write(dir.resolve(s"${w.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json"),
                  Stats.json(full).getBytes(StandardCharsets.UTF_8))
      println("record " + Stats.json(full.filter { case (k, _) => k != "spans" && k != "jobs" }))
      println(Stats.json(mutable.LinkedHashMap(
        "correct" -> checks.correct, "attempted" -> checks.attempted, "failed" -> checks.failed,
        "metrics" -> metrics.map { case (name, (v, unit)) =>
          name -> mutable.LinkedHashMap("value" -> v, "unit" -> unit) })))
    } finally spark.stop()
  }

  /** Output checks. Each greedy call is one attempted operation; it fails
    * if its picks are not k distinct in-range ids, differ from the run's
    * reference picks, or if the reference itself fails a run-level check
    * (picks stored by an earlier run of the same seed and sources, the
    * quality gate).
    */
  final class Checks(n: Int, k: Int) {
    var attempted = 0
    private var callFailures = 0
    private var referenceFailed = false
    private var traceFailed = false
    val problems: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

    private def problem(msg: String): Unit = { problems += msg; Console.err.println(s"[perfbench] FAIL $msg") }

    def call(label: String, picks: Seq[Int], reference: Seq[Int]): Unit = {
      attempted += 1
      val errs = Seq(
        (picks.length != k) -> s"$label: ${picks.length} picks, want $k",
        (picks.distinct.length != picks.length) -> s"$label: repeated picks",
        picks.exists(u => u < 0 || u >= n) -> s"$label: pick out of [0, $n)",
        (picks != reference) -> s"$label: picks ${picks.mkString(",")} differ from reference ${reference.mkString(",")}",
      ).collect { case (true, msg) => msg }
      if (errs.nonEmpty) { callFailures += 1; errs.foreach(problem) }
    }

    def reference(ok: Boolean, msg: => String): Unit = if (!ok) { referenceFailed = true; problem(msg) }
    def trace(ok: Boolean, msg: => String): Unit = if (!ok) { traceFailed = true; problem(msg) }

    def failed: Int = if (referenceFailed) attempted else callFailures
    def correct: Boolean = failed == 0 && !traceFailed
  }

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private val osMx = java.lang.management.ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private def cpuNanos: Long = osMx.getProcessCpuTime

  final class Run(spark: SparkSession, w: Workload, a: Args, algoSeed: Long) {
    private var graph: CsrGraph = _
    lazy val checks = new Checks(graph.n, K)

    /** Metrics by name as (value, unit), and the rest of the run's record. */
    type Out = (mutable.LinkedHashMap[String, (Double, String)], Seq[(String, Any)])

    /** The workload's untimed warm-up set-ups (the first also starts Spark
      * SQL), then as many timed ones (traced if `trace` is given); returns
      * the timed set-ups' times.
      */
    private def setUp(trace: Option[Trace]): Seq[Double] = {
      (0 until w.setups).foreach(_ => graph = w.toCsr(w.generate(spark)))
      (0 until w.setups).map { _ =>
        val t0 = System.nanoTime()
        graph = trace match {
          case Some(tr) =>
            val df = tr.span("graph.gen")(w.generate(spark))
            tr.span("graph.lcc")(w.toCsr(df))
          case None => w.toCsr(w.generate(spark))
        }
        seconds(t0)
      }
    }

    private def score(picks: Seq[Int]): Double =
      if (graph.n <= DenseScoreMaxN) Cfcc.exact(graph, picks.toSet)
      else Cfcc.approxCg(graph, picks.toSet, ScoreProbes, ScoreSeed)

    /** Run-level checks on the reference picks: equal to the picks an
      * earlier run of this seed and these sources stored, and on
      * `forest-road1k` the quality gate against EXACT greedy. Returns (cfcc, scoring s, EXACT greedy s).
      */
    private def checkReference(ref: Seq[Int]): (Double, Double, Double) = {
      // keyed by the compiled sources too: only runs of the same code must agree
      val file = Files.createDirectories(a.stateDir.resolve("picks"))
        .resolve(s"${w.name}-seed${a.seed}-${a.sourceSha.take(16)}.txt")
      val line = ref.mkString(",")
      if (Files.exists(file)) {
        val earlier = new String(Files.readAllBytes(file), StandardCharsets.UTF_8).trim
        checks.reference(earlier == line, s"picks $line differ from an earlier run of seed ${a.seed}: $earlier")
      } else Files.write(file, line.getBytes(StandardCharsets.UTF_8))
      val t0 = System.nanoTime()
      val cfcc = score(ref)
      val scoreS = seconds(t0)
      var exactS = 0.0
      if (w.exactGate) {
        val t1 = System.nanoTime()
        val exact = ExactGreedy.run(graph, K)
        exactS = seconds(t1)
        val exactC = Cfcc.exact(graph, exact.picks.toSet)
        checks.reference(cfcc >= QualityGate * exactC,
                         f"cfcc $cfcc%.5f below $QualityGate × EXACT greedy's $exactC%.5f")
      }
      (cfcc, scoreS, exactS)
    }

    private def warmUp(): Seq[Seq[Int]] = Seq.fill(WarmCalls)(Workloads.run(spark, w, graph, K, algoSeed))

    def untraced(): Out = {
      val setups = setUp(None)
      val warm = warmUp()
      val calls = mutable.ArrayBuffer.empty[(Seq[Int], Double, Double)]
      val t0 = System.nanoTime()
      while (calls.isEmpty || seconds(t0) < a.seconds) {
        val c0 = cpuNanos; val w0 = System.nanoTime()
        val picks = Workloads.run(spark, w, graph, K, algoSeed)
        calls += ((picks, seconds(w0), (cpuNanos - c0) / 1e9))
      }
      val ref = calls.head._1
      warm.zipWithIndex.foreach { case (p, i) => checks.call(s"warm-up $i", p, ref) }
      calls.zipWithIndex.foreach { case (c, i) => checks.call(s"call $i", c._1, ref) }
      val (cfcc, _, _) = checkReference(ref)
      val metrics = mutable.LinkedHashMap(
        "setup_s" -> (Stats.median(setups), "s"),
        "select_s" -> (Stats.median(calls.map(_._2).toSeq), "s"),
        "select_cpu_s" -> (Stats.median(calls.map(_._3).toSeq), "s"),
        "cfcc" -> (cfcc, "score"))
      (metrics, Seq("n" -> graph.n, "m" -> graph.m, "picks" -> ref, "setup_runs_s" -> setups,
                    "select_runs_s" -> calls.map(_._2), "select_cpu_runs_s" -> calls.map(_._3)))
    }

    def traced(): Out = {
      val sc = spark.sparkContext
      val heap = new Trace.HeapAfterGc
      val listener = new Trace.JobListener
      sc.addSparkListener(listener)
      val trace = new Trace
      setUp(Some(trace))
      val warm = warmUp()
      def untracedCall(): (Seq[Int], Double) = {
        val w0 = System.nanoTime()
        (Workloads.run(spark, w, graph, K, algoSeed), seconds(w0))
      }
      // untraced calls on both sides of the traced one, so that warm-up still
      // under way shows in neither sign of the overhead
      val (untracedPicks, before) = untracedCall()
      val jobsBefore = Trace.lastUngroupedJob(sc)
      val traced0 = trace.span("select")(Redrive.run(spark, trace, w, graph, K, algoSeed))
      val (afterPicks, after) = untracedCall()
      val untracedS = (before + after) / 2
      val traced = Redrive.withBudgets(w, graph, algoSeed, traced0)
      val root = trace.named("select").head
      warm.zipWithIndex.foreach { case (p, i) => checks.call(s"warm-up $i", p, untracedPicks) }
      checks.call("untraced call", untracedPicks, untracedPicks)
      checks.call("traced call", traced.picks, untracedPicks)
      checks.call("second untraced call", afterPicks, untracedPicks)
      val groups = traced.phases.map(_.group).toSet
      val allJobs = listener.finishedJobs(sc, groups.toSeq, after = jobsBefore)
      val jobs = allJobs.filter(j => groups(j.group))

      // Split every phase span into: call start → first job (context),
      // Spark jobs, driver time between jobs, last job end → return. Context
      // and assembly are the residuals, so the four parts add up to the phase
      // span by construction.
      var ctx, jobWall, gap, assembly = 0.0
      for (p <- traced.phases) {
        val js = jobs.filter(_.group == p.group)
        checks.trace(js.nonEmpty, s"phase ${p.group} (${p.span.name}) ran no Spark job")
        val outside = js.filter(j =>
          j.startMs < p.span.startMs - ClockSlackMs || j.endMs > p.span.endMs + ClockSlackMs)
        checks.trace(outside.isEmpty, s"jobs ${outside.map(_.id).mkString(",")} of phase ${p.group} lie outside its span")
        if (js.isEmpty) ctx += p.span.seconds
        else {
          ctx += (js.head.startMs - p.span.startMs) / 1e3
          assembly += (p.span.endMs - js.last.endMs) / 1e3
          jobWall += js.map(_.seconds).sum
          gap += js.sliding(2).collect { case Seq(x, y) => (y.startMs - x.endMs) / 1e3 }.sum
        }
      }
      // Spark work in the traced call that no phase's job group claims
      val stray = allJobs.filter(j => !groups(j.group) &&
        j.endMs > root.startMs + ClockSlackMs && j.startMs < root.endMs - ClockSlackMs)
      checks.trace(stray.isEmpty, s"jobs ${stray.map(_.id).mkString(",")} ran in the traced call outside every phase")
      def total(name: String): Double = trace.named(name).map(_.seconds).sum
      val selectT = total("core.select_t")
      val argmax = total("core.argmax")
      // The layers cover the traced call but for the loop's own bookkeeping
      // between them, so this share is close to 1 unless a layer goes untimed.
      val selfSum = selectT + argmax + ctx + jobWall + gap + assembly
      val share = selfSum / root.seconds
      checks.trace(math.abs(share - 1.0) <= 0.10,
                   f"layer self times sum to $selfSum%.3f s, traced select_s is ${root.seconds}%.3f s")

      val tasks = jobs.flatMap(_.tasks)
      val taskRunS = tasks.map(_.runMs).sum / 1e3
      val util = if (jobWall > 0) taskRunS / (jobWall * Runtime.getRuntime.availableProcessors) else 0.0
      val skews = jobs.flatMap { j =>
        val runs = j.tasks.map(_.runMs.toDouble).toSeq
        val med = if (runs.isEmpty) 0.0 else Stats.median(runs)
        if (med > 0) Some(runs.max / med) else None
      }
      val sampler = w.algo != Approx
      def onSampler(x: Double): Double = if (sampler) x else 0.0
      def onCg(x: Double): Double = if (sampler) 0.0 else x
      val deltas = trace.named("core.delta").map(_.seconds)

      val (_, scoreS, exactS) = checkReference(untracedPicks)
      val half = untracedPicks.take(K / 2).toSet
      val tList = traced.t.filterNot(half.contains)
      val roots = half ++ tList
      val fl = if (sampler) Some(Micro.forestLayers(graph, roots, tList, Jl.width(w.eps), algoSeed)) else None
      val cg = Micro.cg(graph, half, ApproxGreedy.width(w.eps, graph.n), algoSeed)

      val m = mutable.LinkedHashMap[String, (Double, String)](
        "graph.gen_s" -> (Stats.median(trace.named("graph.gen").map(_.seconds)), "s"),
        "graph.lcc_s" -> (Stats.median(trace.named("graph.lcc").map(_.seconds)), "s"),
        "core.first_pick_s" -> (total("core.first_pick"), "s"),
        "core.select_t_s" -> (selectT, "s"),
        "core.delta_s" -> (deltas.sum, "s"),
        "core.delta_max_s" -> (if (deltas.isEmpty) 0.0 else deltas.max, "s"),
        "core.ctx_s" -> (ctx, "s"),
        "core.assembly_s" -> (assembly, "s"),
        "core.argmax_s" -> (argmax, "s"),
        "core.score_s" -> (scoreS, "s"),
        "forest.sampler.jobs" -> (onSampler(jobs.length), "count"),
        "forest.sampler.job_s" -> (onSampler(jobWall), "s"),
        "forest.sampler.util" -> (onSampler(util), "ratio"),
        "forest.sampler.gap_s" -> (onSampler(gap), "s"),
        "forest.sampler.task_s" -> (onSampler(taskRunS), "s"),
        "forest.sampler.task_cpu_s" -> (onSampler(tasks.map(_.cpuNs).sum / 1e9), "s"),
        "forest.sampler.task_skew" -> (onSampler(if (skews.isEmpty) 0.0 else Stats.median(skews)), "ratio"),
        "forest.sampler.result_mb" -> (onSampler(tasks.map(_.resultBytes).sum / 1e6), "MB"),
        "forest.sampler.result_ser_s" -> (onSampler(tasks.map(_.resultSerMs).sum / 1e3), "s"),
        "forest.sampler.deser_s" -> (onSampler(tasks.map(_.deserMs).sum / 1e3), "s"),
        "forest.sampler.gc_s" -> (onSampler(tasks.map(_.gcMs).sum / 1e3), "s"),
        "forest.sampler.forests" -> (traced.phases.map(_.forests).sum.toDouble, "count"),
        "forest.sampler.stopped_early" -> (onSampler(
          traced.phases.count(p => p.forests < p.budget).toDouble / traced.phases.length), "share"),
        "forest.wilson.ms_per_forest" -> (fl.fold(0.0)(_.wilsonMs), "ms"),
        "forest.fold.ms_per_forest" -> (fl.fold(0.0)(_.foldMs), "ms"),
        "forest.fold.mb_per_forest" -> (fl.fold(0.0)(_.foldMb), "MB"),
        "forest.merge.ms_per_acc" -> (fl.fold(0.0)(_.mergeMs), "ms"),
        "forest.acc.mb" -> (fl.fold(0.0)(_.accMb), "MB"),
        "linalg.cg.solves" -> (onCg(traced.work.toDouble), "count"),
        "linalg.cg.iters_per_solve" -> (cg.itersPerSolve, "count"),
        "linalg.cg.ms_per_solve" -> (cg.msPerSolve, "ms"),
        "linalg.cg.jobs" -> (onCg(jobs.length), "count"),
        "linalg.cg.job_s" -> (onCg(jobWall), "s"),
        "linalg.cg.util" -> (onCg(util), "ratio"),
        "linalg.cg.gap_s" -> (onCg(gap), "s"),
        "linalg.dense.exact_greedy_s" -> (exactS, "s"),
        "jvm.heap_after_gc_peak_mb" -> (heap.peakBytes / 1e6, "MB"),
        "trace.select_s" -> (root.seconds, "s"),
        "trace.overhead_s" -> (root.seconds - untracedS, "s"),
        "trace.self_sum_share" -> (share, "share"),
      )
      val t0Ms = trace.spans.head.startMs
      val record = Seq(
        "n" -> graph.n, "m" -> graph.m, "picks" -> untracedPicks, "untraced_select_s" -> Seq(before, after),
        // span and job times in ms from the first span's start
        "spans" -> trace.spans.map(s => mutable.LinkedHashMap(
          "id" -> s.id, "name" -> s.name, "parent" -> s.parent,
          "start_ms" -> (s.startMs - t0Ms), "end_ms" -> (s.endMs - t0Ms))),
        "jobs" -> jobs.map(j => mutable.LinkedHashMap(
          "id" -> j.id, "group" -> j.group, "start_ms" -> (j.startMs - t0Ms), "end_ms" -> (j.endMs - t0Ms),
          "tasks" -> j.tasks.length)),
        "phase_forests" -> traced.phases.map(_.forests), "phase_budgets" -> traced.phases.map(_.budget))
      (m, record)
    }
  }
}
