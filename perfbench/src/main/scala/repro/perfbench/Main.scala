package repro.perfbench

import repro.core.LouvainOptions
import repro.graph.LocalGraph
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Closed-loop Louvain benchmark: one caller, the next clustering starts only
  * after the previous one returned.
  *
  * {{{
  * Main --workload NAME --seed N --seconds S --trace 0|1
  * }}}
  *
  * `--trace 0` reports the end-to-end metrics; `--trace 1` alternates plain
  * and traced ops and reports the per-layer metrics. The last line of
  * standard output is one JSON object: correct, attempted, failed, metrics.
  */
object Main {

  /** `smoke` shrinks the inputs and set-up for the self-tests. */
  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, smoke: Boolean = false)

  def parseArgs(args: Array[String]): Args = {
    val kv = args.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    Args(need("--workload"), need("--seed").toLong, need("--seconds").toDouble,
      need("--trace") match { case "0" => false; case "1" => true; case t => throw new IllegalArgumentException(s"--trace $t") })
  }

  /** A metric as printed: value, unit and how it was obtained. */
  final case class Metric(name: String, value: Double, unit: String, note: String)

  final case class Report(attempted: Int, failed: Int, metrics: Seq[Metric], info: Seq[String]) {
    def correct: Boolean = attempted > 0 && failed == 0

    def lines: Seq[String] = info ++ metrics.map(m => s"metric ${m.name} = ${m.value} ${m.unit} (${m.note})") :+ json

    def json: String = {
      def num(v: Double) = if (v.isNaN || v.isInfinite) "-1" else v.toString
      val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
      s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
    }
  }

  def main(args: Array[String]): Unit = {
    val a = parseArgs(args)
    run(a).lines.foreach(println)
    // The Parallel pools are daemon threads; Spark, if started, is stopped.
    System.exit(0)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.length
    if (n == 0) Double.NaN else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest nearest-rank percentile with at least ten samples above
    * it, as (percentile, value); with ten samples or fewer, the maximum.
    */
  def tail(xs: Seq[Double]): (Int, Double) = {
    val s = xs.sorted; val n = s.length
    if (n == 0) (100, Double.NaN)
    else if (n <= 10) (100, s.last)
    else {
      val pct = 100 * (n - 10) / n
      (pct, s(math.ceil(pct * n / 100.0).toInt - 1))
    }
  }

  /** Shortest timed window: enough ops that `tail` is at or above the median. */
  val MinTimedOps = 21

  def run(a: Args): Report = run(Workloads.byName(a.workload, a.smoke), a)

  def run(w: Workload, a: Args): Report = {
    val threads = w.threads
    val opts    = LouvainOptions(threads = threads, seed = a.seed)
    val info    = ArrayBuffer(Env.line(threads, a))

    // Set-up: build the input several times and keep the last one.
    val setupReps = if (a.smoke) 1 else 3
    var g: LocalGraph = null
    val buildS = (1 to setupReps).map { _ =>
      g = null
      val t0 = System.nanoTime(); g = w.build(a.seed); (System.nanoTime() - t0) / 1e9
    }
    val n = g.numVertices; val m = g.numEdges
    info += f"input n=$n m=$m, built $setupReps times in ${buildS.map(s => f"$s%.3f").mkString(", ")} s"

    for (_ <- 1 to w.warmupOps) w.cluster(g, opts)

    var attempted = 0; var failed = 0
    val plainS = ArrayBuffer.empty[Double]; val tracedS = ArrayBuffer.empty[Double]
    val objectives = ArrayBuffer.empty[Double]; val retained = ArrayBuffer.empty[Double]
    val layers = ArrayBuffer.empty[Map[String, Double]]

    /** One op; None when every check passed. */
    def op(traced: Boolean): Option[String] = {
      attempted += 1
      try {
        val (res, secs, reading) =
          if (!traced) {
            val t0 = System.nanoTime(); val r = w.cluster(g, opts)
            (r, (System.nanoTime() - t0) / 1e9, Map.empty[String, Double])
          } else {
            val tracer = new TracingEngine(w.engine)
            val j0 = JvmCounters.read()
            val t0 = System.nanoTime(); tracer.start()
            val r  = w.traced(g, opts, tracer)
            tracer.finish()
            val secs = (System.nanoTime() - t0) / 1e9
            val jvm  = JvmCounters.delta(j0, JvmCounters.read())
            (r, secs, tracer.readings(threads) ++ jvm ++ Map("cluster_s" -> secs,
              "levels" -> r.numLevels.toDouble, "iterations" -> r.numIterations.toDouble))
          }
        val obj   = w.objective(g, res.clusters)
        val error = Checks.density(res.clusters, n)
          .orElse(Checks.objective(obj, w.floor(g), w.floorText))
          .orElse(reading.get("compress.objective_drift").collect {
            case d if !(d <= 1e-9) => s"compression changed the objective by a relative $d"
          })
        if (error.isEmpty) {
          (if (traced) tracedS else plainS) += secs
          objectives += obj; retained += res.retainedBytesAllLevels / 1e6
          if (traced) layers += reading
        }
        error
      } catch { case NonFatal(e) => Some(e.toString) }
    }

    val start = System.nanoTime()
    def elapsed = (System.nanoTime() - start) / 1e9
    var k = 0
    while (elapsed < a.seconds || k < (if (a.trace) 6 else MinTimedOps)) {
      op(a.trace && k % 2 == 1).foreach { e => failed += 1; info += s"FAILED op $attempted: $e" }
      k += 1
    }

    info += s"op seconds in order: plain ${plainS.map(x => f"$x%.3f").mkString(" ")}" +
      (if (a.trace) s"; traced ${tracedS.map(x => f"$x%.3f").mkString(" ")}" else "")
    val metrics =
      if (!a.trace) endToEnd(plainS.toSeq, objectives.toSeq, retained.toSeq, buildS, m, attempted, failed)
      else {
        val probe =
          if (w.dataflow && !a.smoke) {
            attempted += 1
            val p = Dataflow.probe(a.seed, threads)
            p.error.foreach { e => failed += 1; info += s"FAILED dataflow op: $e" }
            info ++= p.info
            p.readings
          } else Map.empty[String, Double]
        perLayer(layers.toSeq, plainS.toSeq, tracedS.toSeq, buildS, n, m, threads, probe)
      }
    Report(attempted, failed, metrics, info.toSeq)
  }

  def endToEnd(secs: Seq[Double], objectives: Seq[Double], retained: Seq[Double],
               buildS: Seq[Double], m: Long, attempted: Int, failed: Int): Seq[Metric] = {
    val n        = secs.length
    val med      = median(secs)
    val (pct, t) = tail(secs)
    Seq(
      Metric("cluster_s", med, "s", s"median of $n timed ops"),
      Metric("cluster_s_tail", t, "s",
        if (n > 10) s"p$pct, the highest percentile with 10 of $n ops above it" else s"max of $n ops"),
      Metric("edges_per_s", m / med, "1/s", s"m=$m / median cluster_s"),
      Metric("objective", median(objectives), "score", s"median of $n ops"),
      Metric("retained_mb", median(retained), "MB", "LouvainResult.retainedBytesAllLevels, median"),
      Metric("setup_s", median(buildS), "s", s"median of ${buildS.length} input builds"),
      Metric("ok_share", (attempted - failed).toDouble / attempted, "share",
        s"${attempted - failed} of $attempted ops passed every check; failed_share=${failed.toDouble / attempted}"),
    )
  }

  /** Per-layer names, units and the end-to-end metric each should move are
    * listed in METRICS.md next to this source tree.
    */
  val layerUnits: Seq[(String, String)] = Seq(
    "best_moves.s" -> "s", "best_moves.calls" -> "count", "best_moves.passes" -> "count",
    "best_moves.moved" -> "count", "best_moves.moved_per_pass" -> "count",
    "refine.s" -> "s", "refine.passes" -> "count", "refine.moved" -> "count",
    "compress.s" -> "s", "normalize.s" -> "s", "compress.calls" -> "count",
    "compress.edges_in" -> "count", "compress.edges_out" -> "count", "compress.shrink" -> "ratio",
    "compress.objective_drift" -> "ratio", "flatten.s" -> "s",
    "levels" -> "count", "iterations" -> "count",
    "cpu_s" -> "s", "parallel.utilization" -> "ratio", "jvm.gc_s" -> "s", "jvm.alloc_mb" -> "MB",
    "graph.build_s" -> "s", "graph.n" -> "count", "graph.m" -> "count",
    "trace.overhead" -> "ratio", "trace.unattributed_share" -> "share",
    "dataflow.levels" -> "count", "dataflow.rounds" -> "count", "dataflow.objective_ratio" -> "ratio",
    "spark.jobs" -> "count", "spark.stages" -> "count", "spark.tasks" -> "count",
    "spark.shuffle_write_mb" -> "MB", "spark.shuffle_read_mb" -> "MB", "spark.jobs_per_round" -> "count",
  )

  def perLayer(layers: Seq[Map[String, Double]], plainS: Seq[Double], tracedS: Seq[Double],
               buildS: Seq[Double], n: Int, m: Long, threads: Int,
               dataflow: Map[String, Double]): Seq[Metric] = {
    def med(k: String) = median(layers.map(_(k)))
    val cluster = median(tracedS)
    val derived = Map(
      "parallel.utilization" -> median(layers.map(l => l("cpu_s") / (l("cluster_s") * threads))),
      "graph.build_s"        -> median(buildS),
      "graph.n"              -> n.toDouble,
      "graph.m"              -> m.toDouble,
      "trace.overhead"       -> cluster / median(plainS),
      "trace.unattributed_share" -> median(layers.map(l => 1 - l("trace.attributed_s") / l("cluster_s"))),
      // collections are rare at this heap size, so a median would mostly read 0
      "jvm.gc_s"             -> layers.map(_("jvm.gc_s")).sum / layers.length,
    )
    layerUnits.map { case (name, unit) =>
      val (v, note) =
        if (name.startsWith("dataflow.") || name.startsWith("spark."))
          dataflow.get(name).map(_ -> "GX-CC, one op after one warm-up op").getOrElse(0.0 -> "not measured on this workload")
        else derived.get(name).map(_ -> "derived").getOrElse(med(name) -> s"median of ${layers.length} traced ops")
      Metric(name, v, unit, note)
    }
  }
}

/** The run's environment, printed with every result. */
object Env {
  def line(threads: Int, a: Main.Args): String = {
    val rt   = java.lang.management.ManagementFactory.getRuntimeMXBean
    val heap = rt.getInputArguments.toArray.map(_.toString).filter(_.startsWith("-X")).mkString(" ")
    def q(s: String) = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
    val fields = Seq(
      "workload" -> q(a.workload), "seed" -> a.seed.toString, "seconds" -> a.seconds.toString,
      "trace" -> a.trace.toString, "nproc" -> Workloads.nproc.toString, "threads" -> threads.toString,
      "jdk" -> q(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"),
      "spark" -> q(org.apache.spark.SPARK_VERSION), "heap" -> q(heap),
      "git_sha" -> q(sys.env.getOrElse("PERFBENCH_GIT_SHA", "unknown")),
      "source_sha" -> q(sys.env.getOrElse("PERFBENCH_SOURCE_SHA", "unknown")),
    )
    "env {" + fields.map { case (k, v) => s"${q(k)}: $v" }.mkString(", ") + "}"
  }
}
