package repro.perfbench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import repro.core.{LouvainOptions, Objective, ParLouvain}
import repro.dataflow.GraphxLouvain
import repro.graph.{GraphGen, LocalGraph}

/** Spark jobs, stages, tasks and shuffle bytes, counted from the listener bus. */
final class SparkCounters extends SparkListener {
  val jobs, stages, tasks, shuffleWrite, shuffleRead = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    Option(e.taskMetrics).foreach { m =>
      shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      shuffleRead.addAndGet(m.shuffleReadMetrics.totalBytesRead)
    }
  }
}

/** GX-CC at the T16 settings (λ=0.5, numIter=8, maxLevels=6) on rMAT scale 10
  * with 8 edge draws per vertex, checked against PAR-CC on the same graph.
  */
object Dataflow {
  val Lambda    = 0.5
  val NumIter   = 8
  val MaxLevels = 6
  /** T16's own acceptance bound on GX-CC objective / PAR-CC objective. */
  val MinRatio  = 0.5

  final case class Probe(readings: Map[String, Double], error: Option[String], info: Seq[String])

  def start(threads: Int): SparkSession = {
    val spark = SparkSession.builder()
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.sql.shuffle.partitions", threads.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark
  }

  /** Block until every event posted so far has reached the listeners. */
  private def drain(sc: SparkContext): Unit = {
    val bus = sc.getClass.getMethod("listenerBus").invoke(sc)
    bus.getClass.getMethod("waitUntilEmpty").invoke(bus)
  }

  /** Bytes of persisted RDDs, then unpersist them: GX-CC leaves its level
    * RDDs cached, and without this the cache grows from op to op.
    */
  private def releaseCached(sc: SparkContext): Long = {
    val bytes = sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum
    sc.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    bytes
  }

  /** One warm-up GX-CC op, then one measured with `SparkCounters`. */
  def probe(seed: Long, threads: Int): Probe = {
    val t0    = System.nanoTime()
    val spark = start(threads)
    val sparkS = (System.nanoTime() - t0) / 1e9
    val sc    = spark.sparkContext
    try {
      val g: LocalGraph = GraphGen.rmat(10, 8L << 10, seed)
      val ref = Objective.cc(g, ParLouvain.cluster(g, Lambda, LouvainOptions(seed = seed, threads = threads)).clusters, Lambda)
      GraphxLouvain.cluster(spark, g, Lambda, NumIter, MaxLevels, seed)
      releaseCached(sc)
      val counters = new SparkCounters
      drain(sc)
      sc.addSparkListener(counters)
      val t1  = System.nanoTime()
      val res = GraphxLouvain.cluster(spark, g, Lambda, NumIter, MaxLevels, seed)
      val gxS = (System.nanoTime() - t1) / 1e9
      drain(sc)
      sc.removeSparkListener(counters)
      val retained = releaseCached(sc)
      val obj   = Objective.cc(g, res.clusters, Lambda)
      val ratio = obj / math.max(1e-12, ref)
      val error = Checks.density(res.clusters, g.numVertices)
        .orElse(Checks.objective(obj, 0.0, "CC > 0"))
        .orElse(if (ratio > MinRatio) None else Some(s"GX-CC / PAR-CC objective $ratio is not above $MinRatio"))
      val rounds = math.max(1, res.rounds)
      Probe(Map(
        "dataflow.levels"         -> res.levels.toDouble,
        "dataflow.rounds"         -> res.rounds.toDouble,
        "dataflow.objective_ratio" -> ratio,
        "spark.jobs"              -> counters.jobs.get.toDouble,
        "spark.stages"            -> counters.stages.get.toDouble,
        "spark.tasks"             -> counters.tasks.get.toDouble,
        "spark.shuffle_write_mb"  -> counters.shuffleWrite.get / 1e6,
        "spark.shuffle_read_mb"   -> counters.shuffleRead.get / 1e6,
        "spark.jobs_per_round"    -> counters.jobs.get.toDouble / rounds,
      ), error, Seq(
        f"dataflow gx-cc rmat10 n=${g.numVertices} m=${g.numEdges}: spark start $sparkS%.3f s, " +
          f"op $gxS%.3f s (${gxS / rounds}%.4f s per round, ${counters.stages.get.toDouble / rounds}%.1f stages, " +
          f"${counters.tasks.get.toDouble / rounds}%.1f tasks per round), retained ${retained / 1e6}%.3f MB, " +
          f"objective $obj%.1f vs PAR-CC $ref%.1f",
      ))
    } finally spark.stop()
  }
}
