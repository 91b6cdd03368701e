package repro.perfbench

import repro.core._
import repro.graph.{GraphGen, LocalGraph}

/** A benchmark workload: an input built from the seed and the clustering
  * call the closed loop repeats on it.
  *
  * @param build     input from the workload seed
  * @param cluster   one clustering call through the public entry point
  * @param traced    the same call, with `TracingEngine` in place of `engine`
  * @param objective the quality the output is judged by (higher is better)
  * @param floor     lowest objective an output may have, given the input
  * @param warmupOps untimed ops before the timed window (JIT warm-up)
  * @param dataflow  the traced run also measures GX-CC (see `Dataflow`)
  */
final case class Workload(
    name: String,
    engine: LouvainEngine,
    threads: Int,
    build: Long => LocalGraph,
    cluster: (LocalGraph, LouvainOptions) => LouvainResult,
    traced: (LocalGraph, LouvainOptions, TracingEngine) => LouvainResult,
    objective: (LocalGraph, Array[Int]) => Double,
    floor: LocalGraph => Double,
    floorText: String,
    warmupOps: Int,
    dataflow: Boolean = false,
)

object Workloads {
  val Lambda = 0.01
  val Gamma  = 0.85
  val nproc: Int = Runtime.getRuntime.availableProcessors()

  /** rMAT with the paper's parameters at 2^scale vertices and ~11.4 edge
    * draws per vertex, the density of the 3M-draw scale-18 input
    * (`BenchGraphs.rmatLarge`) at an eighth of its size.
    */
  private def rmat(scale: Int)(seed: Long): LocalGraph =
    GraphGen.rmat(scale, 3_000_000L >> (18 - scale), seed)

  private def ccWorkload(name: String, engine: LouvainEngine, threads: Int, scale: Int,
                         warmupOps: Int, dataflow: Boolean): Workload =
    Workload(name, engine, threads, rmat(scale),
      cluster = (g, o) => engine match {
        case SeqLouvain => SeqLouvain.cluster(g, Lambda, o)
        case _          => ParLouvain.cluster(g, Lambda, o)
      },
      traced    = (g, o, t) => LouvainDriver.run(g, Lambda, o, t),
      objective = (g, c) => Objective.cc(g, c, Lambda),
      floor     = g => 0.05 * g.numEdges,
      floorText = "CC > 0.05 m (all singletons score 0)",
      warmupOps = warmupOps, dataflow = dataflow)

  /** Every workload; `smoke` shrinks the inputs for the self-tests. */
  def all(smoke: Boolean): Seq[Workload] = {
    val scale = if (smoke) 10 else 15
    Seq(
      ccWorkload("rmat15-cc", ParLouvain, nproc, scale, warmupOps = if (smoke) 1 else 4, dataflow = true),
      Workload("orkut-mod", ParLouvain, nproc,
        build     = seed => (if (smoke) GraphGen.presetSmall("orkut-lite", seed)
                             else GraphGen.preset("orkut-lite", seed)).graph,
        cluster   = (g, o) => ParLouvain.clusterModularity(g, Gamma, o),
        traced    = (g, o, t) => LouvainDriver.run(g.withDegreeWeights, Gamma / (2 * g.totalEdgeWeight), o, t),
        objective = (g, c) => Objective.modularity(g, c, Gamma),
        floor     = _ => 0.5,
        floorText = "modularity > 0.5",
        warmupOps = if (smoke) 1 else 8),
      ccWorkload("rmat15-seq", SeqLouvain, 1, scale, warmupOps = if (smoke) 1 else 3, dataflow = false),
    )
  }

  def byName(name: String, smoke: Boolean): Workload =
    all(smoke).find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload: $name (expected one of ${all(smoke).map(_.name).mkString(", ")})"))
}

/** Output checks applied to every op. */
object Checks {

  /** None when `c` has length n and uses exactly the ids [0, nC). */
  def density(c: Array[Int], n: Int): Option[String] =
    if (c == null || c.length != n) Some(s"clustering has length ${Option(c).map(_.length).getOrElse(-1)}, expected $n")
    else if (n == 0) None
    else {
      val nC = c.max + 1
      if (c.min < 0) Some("negative cluster id")
      else {
        val used = new Array[Boolean](nC)
        c.foreach(used(_) = true)
        if (used.forall(identity)) None else Some(s"cluster ids are not dense in [0, $nC)")
      }
    }

  /** None when the objective is finite and above `floor`. */
  def objective(value: Double, floor: Double, floorText: String): Option[String] =
    if (value.isNaN || value.isInfinite) Some(s"objective is $value")
    else if (value <= floor) Some(s"objective $value is not above the floor ($floorText = $floor)")
    else None
}
