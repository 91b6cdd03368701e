package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.SplittableRandom
import repro.core.{BestMovesResult, Compress, LouvainEngine, LouvainOptions, Objective}
import repro.graph.LocalGraph
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One BEST-MOVES call as the driver made it. `init` is a copy taken before
  * the call; `refine` marks calls on the way back up.
  */
final case class MoveCall(g: LocalGraph, lambda: Double, init: Array[Int],
                          result: BestMovesResult, ns: Long, refine: Boolean)

/** A [[LouvainEngine]] that delegates to `inner` and times every BEST-MOVES
  * call, plus the driver's own work in the gaps between calls:
  *   - between two coarsening calls: `Objective.normalize` + `Compress.compress`;
  *   - from the last coarsening call to the end of the run: `Compress.flatten`
  *     and `normalize` around the refinement calls.
  * A refinement call is recognised by its graph: the driver only refines
  * level graphs that an earlier coarsening call already saw.
  */
final class TracingEngine(inner: LouvainEngine) extends LouvainEngine {
  private val calls      = ArrayBuffer.empty[MoveCall]
  private var compressNs = 0L
  private var flattenNs  = 0L
  private var mark       = 0L

  def start(): Unit = { calls.clear(); compressNs = 0; flattenNs = 0; mark = System.nanoTime() }

  /** Close the op: the gap after the last call is the final unwind. */
  def finish(): Unit = flattenNs += System.nanoTime() - mark

  override def compressionThreads(opts: LouvainOptions): Int = inner.compressionThreads(opts)

  override def bestMoves(g: LocalGraph, lambda: Double, opts: LouvainOptions,
                         rng: SplittableRandom, init: Array[Int]): BestMovesResult = {
    val t0     = System.nanoTime()
    val refine = calls.exists(_.g eq g)
    val gap    = t0 - mark
    if (refine) flattenNs += gap
    else if (calls.nonEmpty) compressNs += gap
    val initCopy = init.clone() // unattributed, like the driver entry before the first call
    val t1 = System.nanoTime()
    val r  = inner.bestMoves(g, lambda, opts, rng, init)
    val t2 = System.nanoTime()
    calls += MoveCall(g, lambda, initCopy, r, t2 - t1, refine)
    mark = t2
    r
  }

  /** Per-layer readings of the op just finished. Replays normalize and
    * compress on the recorded coarsening levels (outside the timed op) to
    * time normalize alone and to check that compression preserves the CC
    * objective. A level whose replayed graph differs in size from the one the
    * driver passed on reads as infinite drift.
    */
  def readings(threads: Int): Map[String, Double] = {
    val coarse = calls.filterNot(_.refine)
    val refine = calls.filter(_.refine)
    def moved(c: MoveCall): Long = {
      var k = 0L; var v = 0
      while (v < c.init.length) { if (c.init(v) != c.result.clusters(v)) k += 1; v += 1 }
      k
    }
    var edgesIn = 0L; var edgesOut = 0L; var normNs = 0L; var drift = 0.0
    for (i <- 0 until coarse.length - 1) {
      val a = coarse(i); val b = coarse(i + 1)
      edgesIn += a.g.numEdges; edgesOut += b.g.numEdges
      val t0    = System.nanoTime()
      val dense = Objective.normalize(a.result.clusters)
      normNs += System.nanoTime() - t0
      val replayed = Compress.compress(a.g, dense, dense.max + 1, threads)
      if (replayed.numVertices != b.g.numVertices) drift = Double.PositiveInfinity
      else {
        val next   = Objective.normalize(b.result.clusters)
        val onNext = Objective.cc(replayed, next, a.lambda)
        val onFlat = Objective.cc(a.g, Compress.flatten(dense, next), a.lambda)
        drift = math.max(drift, math.abs(onNext - onFlat) / math.max(1e-12, math.abs(onFlat)))
      }
    }
    val bmPasses = coarse.map(_.result.passes.toLong).sum
    val bmMoved  = coarse.map(moved).sum
    Map(
      "best_moves.s"            -> coarse.map(_.ns).sum / 1e9,
      "best_moves.calls"        -> coarse.length.toDouble,
      "best_moves.passes"       -> bmPasses.toDouble,
      "best_moves.moved"        -> bmMoved.toDouble,
      "best_moves.moved_per_pass" -> bmMoved.toDouble / math.max(1L, bmPasses),
      "refine.s"                -> refine.map(_.ns).sum / 1e9,
      "refine.passes"           -> refine.map(_.result.passes.toLong).sum.toDouble,
      "refine.moved"            -> refine.map(moved).sum.toDouble,
      "compress.s"              -> compressNs / 1e9,
      "normalize.s"             -> normNs / 1e9,
      "compress.calls"          -> (coarse.length - 1).max(0).toDouble,
      "compress.edges_in"       -> edgesIn.toDouble,
      "compress.edges_out"      -> edgesOut.toDouble,
      "compress.shrink"         -> edgesOut.toDouble / math.max(1L, edgesIn),
      "compress.objective_drift" -> drift,
      "flatten.s"               -> flattenNs / 1e9,
      "trace.attributed_s"      -> (calls.map(_.ns).sum + compressNs + flattenNs) / 1e9,
    )
  }
}

/** Process-wide readings from the `java.lang.management` beans, taken
  * around an op: CPU time of the whole process, collector time and bytes
  * allocated by each live thread.
  */
object JvmCounters {
  private val os      = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs     = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  final case class Reading(cpuNs: Long, gcMs: Long, alloc: Map[Long, Long])

  def read(): Reading = {
    val ids   = threads.getAllThreadIds
    val bytes = threads.getThreadAllocatedBytes(ids)
    Reading(os.getProcessCpuTime, gcs.map(_.getCollectionTime).sum,
      ids.indices.collect { case i if bytes(i) >= 0 => ids(i) -> bytes(i) }.toMap)
  }

  /** cpu_s, jvm.gc_s and jvm.alloc_mb between two readings. Threads that
    * ended in between are lost; threads that started count from zero.
    */
  def delta(a: Reading, b: Reading): Map[String, Double] = Map(
    "cpu_s"        -> (b.cpuNs - a.cpuNs) / 1e9,
    "jvm.gc_s"     -> (b.gcMs - a.gcMs) / 1e3,
    "jvm.alloc_mb" -> b.alloc.iterator.map { case (id, v) => v - a.alloc.getOrElse(id, 0L) }.sum / 1e6,
  )
}
