package repro.perfbench

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite

/** Self-tests of the benchmark harness. Run with `sbt test` in perfbench/. */
class PerfbenchSpec extends AnyFunSuite {

  /** (name, unit) of every metric BENCHMARK.json lists under `section`. */
  private def declared(section: String): Seq[(String, String)] = {
    val json = new String(Files.readAllBytes(Paths.get("..", "BENCHMARK.json")), "UTF-8")
    val body = json.substring(json.indexOf(s""""$section""""))
    val list = body.substring(body.indexOf('['), body.indexOf(']') + 1)
    """"name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)"""".r.findAllMatchIn(list).map(m => m.group(1) -> m.group(2)).toSeq
  }

  private def smoke(w: Workload, trace: Boolean) =
    Main.run(w, Main.Args(w.name, seed = 3, seconds = 0.2, trace = trace, smoke = true))

  for (w <- Workloads.all(smoke = true); (trace, section) <- Seq(false -> "end_to_end", true -> "per_layer"))
    test(s"${w.name} --trace ${if (trace) 1 else 0} prints every $section metric with its unit") {
      val r = smoke(w, trace)
      assert(r.correct, r.info.mkString("\n"))
      assert(r.metrics.map(m => m.name -> m.unit) == declared(section))
      val last = r.lines.last
      declared(section).foreach { case (name, unit) =>
        assert(last.contains(s""""$name": {"value": """) && last.contains(s""""unit": "$unit""""))
      }
    }

  test("the workload list matches BENCHMARK.json") {
    val json  = new String(Files.readAllBytes(Paths.get("..", "BENCHMARK.json")), "UTF-8")
    val names = """\{"name":\s*"([^"]+)",\s*"why"""".r.findAllMatchIn(json).map(_.group(1)).toSeq
    assert(names == Workloads.all(smoke = false).map(_.name))
  }

  test("an invalid clustering counts as a failed op") {
    val w      = Workloads.byName("rmat15-cc", smoke = true)
    val broken = w.copy(cluster = (g, o) => {
      val r = w.cluster(g, o)
      r.copy(clusters = r.clusters.map(_ * 2 + 1)) // ids no longer dense
    })
    val r = smoke(broken, trace = false)
    assert(r.attempted >= Main.MinTimedOps)
    assert(r.failed == r.attempted)
    assert(!r.correct)
    assert(r.lines.last.startsWith("""{"correct": false"""))
  }

  test("an objective at or below the floor counts as a failed op") {
    val w = Workloads.byName("orkut-mod", smoke = true)
    val r = smoke(w.copy(cluster = (g, _) => w.cluster(g, repro.core.LouvainOptions(numIter = 0))), trace = false)
    assert(r.failed == r.attempted)
  }

  test("density check") {
    assert(Checks.density(Array(0, 1, 1, 2), 4).isEmpty)
    assert(Checks.density(Array(0, 1, 1), 4).nonEmpty)
    assert(Checks.density(Array(0, 2, 2, 0), 4).nonEmpty)
    assert(Checks.density(Array(0, -1, 1, 0), 4).nonEmpty)
  }

  test("tail is the highest percentile with ten samples above it") {
    val xs = (1 to 40).map(_.toDouble)
    assert(Main.tail(xs) == (75, 30.0))
    assert(Main.tail((1 to 21).map(_.toDouble)) == (52, 11.0))
    assert(Main.tail(Nil)._2.isNaN)
    assert(Main.tail(Seq(3.0, 1.0, 2.0)) == (100, 3.0))
  }

  test("the dataflow probe counts Spark jobs and passes the T16 objective bound") {
    val p = Dataflow.probe(seed = 5, threads = 2)
    assert(p.error.isEmpty, p.info.mkString("\n"))
    assert(p.readings("spark.jobs") > 0 && p.readings("spark.tasks") >= p.readings("spark.stages"))
    assert(p.readings("dataflow.rounds") >= p.readings("dataflow.levels"))
    assert(p.readings("dataflow.objective_ratio") > Dataflow.MinRatio)
  }
}
