package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.SparkContext
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.recipedb.RecipeGen
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** One benchmark run: set up a workload, reproduce the paper in a closed loop
  * with a single client for `--seconds`, check every output, and print one
  * JSON result line. Started by run.py; see README.md.
  *
  * Arguments: --workload NAME --seed N --seconds S --trace 0|1 --out DIR
  */
object Main {

  /** A named input: RecipeDB at scale factor `sf`, mined at the paper's
    * support 0.2.
    */
  final case class Workload(name: String, sf: Double)

  /** Share by which the Spark job count of a traced reproduction may differ
    * from that of an untraced one: AQE re-plans the authenticity queries
    * while they run, which moved the total by up to ~2 % between runs.
    */
  val JobCountTolerance = 0.05

  val Workloads: Seq[Workload] = Seq(
    Workload("small_sf0.1", 0.1),
    Workload("mid_sf0.2", 0.2),
    Workload("paper_sf1", 1.0),
  )

  /** One checked reproduction. `heapBytes` is the heap in use after a full
    * GC forced right after it, with its output still referenced.
    */
  final case class Attempt(run: Int, traced: Boolean, seconds: Double, gcSeconds: Double,
                           jitSeconds: Double, heapBytes: Long, problems: Seq[String])

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, sys.error(s"missing --$k"))
    val workload = Workloads.find(_.name == opt("workload"))
      .getOrElse(sys.error(s"unknown workload ${opt("workload")}; one of ${Workloads.map(_.name).mkString(", ")}"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") == "1"
    // Follows CPU affinity and cgroup limits, as the local[N] master should.
    val cores = Runtime.getRuntime.availableProcessors
    val outDir = Paths.get(opt("out"))

    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    // Built as the repro.jobs entry points build it: master and app name only.
    val spark = SparkSession.builder().master(s"local[$cores]").appName(s"perfbench-${workload.name}").getOrCreate()
    val sessionReadyS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    try {
      val result = new Bench(spark, workload, seed, seconds, trace, outDir).run(jvmStartMs, sessionReadyS)
      println(result)
    } finally spark.stop()
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def jsonString(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def jsonNumber(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString
}

object Jvm {
  /** Total time the JVM has spent in GC so far. */
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3

  /** Total time the JIT compilers have spent so far. */
  def jitSeconds: Double = ManagementFactory.getCompilationMXBean.getTotalCompilationTime / 1e3

  /** Heap in use after a full collection, in bytes, once Spark's background
    * clean-up has settled. The listener bus is drained first, since the
    * status store trims old jobs and stages as their events arrive. Each
    * round collects, pauses so that Spark's context cleaner can release what
    * became unreachable, and collects again; rounds repeat until two readings
    * agree within 1 MB (at most ten).
    */
  def liveHeapBytes(sc: SparkContext): Long = {
    org.apache.spark.perfbench.ListenerBusDrain(sc)
    def round(): Long = {
      System.gc()
      Thread.sleep(200)
      System.gc()
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    }
    var prev = round()
    var cur = round()
    var rounds = 2
    while (math.abs(cur - prev) > (1L << 20) && rounds < 10) {
      prev = cur
      cur = round()
      rounds += 1
    }
    cur
  }
}

final class Bench(spark: SparkSession, w: Main.Workload, seed: Long, seconds: Double,
                  trace: Boolean, outDir: java.nio.file.Path) {
  import Main._

  private val sc = spark.sparkContext
  private val tracer = new Tracer(sc)
  private val log = (s: String) => Console.err.println(s"[perfbench] $s")

  /** Generates, caches and counts the workload's recipes, once. */
  private def setUp(): (DataFrame, Long) = tracer.span("recipedb") {
    val recipes = RecipeGen.recipes(spark, w.sf, seed).cache()
    (recipes, recipes.count())
  }

  private def attempt(run: Int, traced: Boolean, recipes: DataFrame,
                      check: Output => Seq[String]): (Attempt, Option[Output]) = {
    tracer.beginRun(run)
    val gc0 = Jvm.gcSeconds
    val jit0 = Jvm.jitSeconds
    val t0 = System.nanoTime()
    // Spark work outside any layer span is filed under "reproduction", so
    // an untraced reproduction's job count can be set against a traced one.
    val out =
      try Right(tracer.tag("reproduction") {
        if (traced) Reproduction.traced(spark, recipes, tracer) else Reproduction.run(spark, recipes)
      })
      catch { case NonFatal(e) => Left(e) }
    val dt = (System.nanoTime() - t0) / 1e9
    val gc = Jvm.gcSeconds - gc0
    val jit = Jvm.jitSeconds - jit0
    val heapBytes = Jvm.liveHeapBytes(sc)
    val problems = out match {
      case Right(o) => try check(o) catch { case NonFatal(e) => Seq(s"check threw $e") }
      case Left(e) => Seq(s"reproduction threw $e")
    }
    if (problems.nonEmpty) log(s"run $run FAILED: ${problems.mkString(" | ")}")
    log(f"run $run ${if (traced) "traced" else "plain"} $dt%.3f s, gc $gc%.3f s, jit $jit%.3f s")
    (Attempt(run, traced, dt, gc, jit, heapBytes, problems), out.toOption)
  }

  def run(jvmStartMs: Long, sessionReadyS: Double): String = {
    if (trace) sc.addSparkListener(tracer)
    tracer.beginRun(0)
    val (recipes, nRecipes) = setUp()
    val setupS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    val recipedbS = tracer.spans.head.seconds
    log(f"session ready $sessionReadyS%.3f s, recipes generated, cached and counted in $recipedbS%.3f s ($nRecipes recipes), set-up $setupS%.3f s")

    // The cold reproduction comes before the reference so that nothing has
    // warmed the JIT for it; its output is checked once the reference exists.
    val (coldAttempt, coldOut) = attempt(1, traced = false, recipes, _ => Nil)
    val t0 = System.nanoTime()
    val ref = Reference.compute(recipes)
    log(f"reference in ${(System.nanoTime() - t0) / 1e9}%.3f s")
    val check = (o: Output) => Reference.check(o, ref)
    val coldChecked = coldAttempt.copy(problems = coldAttempt.problems ++ coldOut.map(check).getOrElse(Nil))

    // Closed loop, one client: after the cold reproduction, reproductions
    // run back to back until `seconds` have passed (at least one). In a
    // traced run every timed reproduction is traced, so the traced and the
    // untraced run of a workload time the same reproductions.
    val timed = mutable.ArrayBuffer.empty[Attempt]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    while (timed.isEmpty || System.nanoTime() < deadline) {
      timed += attempt(2 + timed.size, traced = trace, recipes, check)._1
    }
    val attempts = coldChecked +: timed.toSeq
    tracer.drain()

    val failed = attempts.count(_.problems.nonEmpty)
    val shapes = Seq(
      "recipes" -> nRecipes.toDouble,
      "cuisines" -> ref.cuisines.size.toDouble,
      "patterns" -> ref.patterns.map(_.nPatterns).sum.toDouble,
      "universe" -> ref.features.patternUniverse.size.toDouble,
      "width" -> ref.fingerprints.get.items.size.toDouble,
    )
    val metrics: Seq[(String, Double, String)] =
      if (!trace) Seq(
        ("run_s", median(timed.map(_.seconds).toSeq), "s"),
        ("cold_run_s", coldAttempt.seconds, "s"),
        ("setup_s", setupS, "s"),
        ("heap_peak_mb", timed.map(_.heapBytes).max / 1048576.0, "MB"),
        ("pass_frac", (attempts.size - failed).toDouble / attempts.size, "1"),
      )
      else layerMetrics(timed.toSeq, recipedbS, nRecipes, ref)

    writeDetail(attempts, metrics, shapes, sessionReadyS, setupS)
    val metricJson = metrics.map { case (n, v, u) =>
      s"${jsonString(n)}: {\"value\": ${jsonNumber(v)}, \"unit\": ${jsonString(u)}}"
    }.mkString(", ")
    s"""{"correct": ${failed == 0}, "attempted": ${attempts.size}, "failed": $failed, "metrics": {$metricJson}}"""
  }

  /** Per-layer metrics: medians over the traced timed reproductions. */
  private def layerMetrics(traced: Seq[Attempt], recipedbS: Double,
                           nRecipes: Long, ref: Output): Seq[(String, Double, String)] = {
    val spansOf = tracer.spans.groupBy(s => (s.run, s.name))
    def spanS(run: Int, name: String) = spansOf.getOrElse((run, name), Nil).map(_.seconds).sum
    def perRun(f: Attempt => Double) = median(traced.map(f))
    def wall(name: String) = perRun(a => spanS(a.run, name))
    def counter(name: String, f: SparkCounters => Double) = perRun(a => f(tracer.countersOf(a.run, name)))
    def cpuS(c: SparkCounters) = c.executorCpuNs / 1e9
    def spark(name: String, extra: Seq[(String, SparkCounters => Double, String)]) = Seq(
      (s"$name.spark_jobs", counter(name, _.jobs.toDouble), "count"),
      (s"$name.tasks", counter(name, _.tasks.toDouble), "count"),
      (s"$name.shuffle_write_bytes", counter(name, _.shuffleWriteBytes.toDouble), "B"),
      (s"$name.result_bytes", counter(name, _.resultBytes.toDouble), "B"),
      (s"$name.executor_cpu_s", counter(name, cpuS), "s"),
      (s"$name.driver_gap_s", perRun(a => spanS(a.run, name) - tracer.countersOf(a.run, name).jobBusySeconds), "s"),
    ) ++ extra.map { case (n, f, u) => (s"$name.$n", counter(name, f), u) }
    val cores = sc.defaultParallelism.toDouble
    // Reproduction.traced copies the calls Pipeline.run makes. If the two
    // drift apart, the traced reproduction starts a different number of
    // Spark jobs than the untraced cold one (run 1) of the same run.
    val tracedJobs = perRun(a => tracer.jobsIn(a.run).toDouble)
    val plainJobs = tracer.jobsIn(1).toDouble
    if (math.abs(tracedJobs - plainJobs) > JobCountTolerance * plainJobs)
      log(f"WARNING: traced reproductions start $tracedJobs%.0f Spark jobs, the untraced one $plainJobs%.0f: " +
        "Reproduction.traced no longer makes the calls Pipeline.run makes")
    Seq(
      ("recipedb.wall_s", recipedbS, "s"),
      ("recipedb.rows", nRecipes.toDouble, "count"),
      ("PatternMiner.wall_s", wall("PatternMiner"), "s"),
    ) ++ spark("PatternMiner", Seq(
      ("shuffle_read_bytes", _.shuffleReadBytes.toDouble, "B"),
      ("job_busy_s", _.jobBusySeconds, "s"),
    )) ++ Seq(
      ("PatternMiner.core_util",
        perRun(a => cpuS(tracer.countersOf(a.run, "PatternMiner")) / (spanS(a.run, "PatternMiner") * cores)), "1"),
      ("PatternMiner.patterns", ref.patterns.map(_.nPatterns).sum.toDouble, "count"),
      ("PatternFeatures.wall_s", wall("PatternFeatures"), "s"),
      ("PatternFeatures.universe", ref.features.patternUniverse.size.toDouble, "count"),
      ("Authenticity.wall_s", wall("Authenticity"), "s"),
    ) ++ spark("Authenticity", Seq(
      ("spill_bytes", _.spillBytes.toDouble, "B"),
    )) ++ Seq(
      ("Authenticity.width", ref.fingerprints.get.items.size.toDouble, "count"),
      ("cluster.pdist_s", wall("cluster.pdist"), "s"),
      ("cluster.hac_s", wall("cluster.hac"), "s"),
      ("cluster.elbow_s", wall("cluster.elbow"), "s"),
      ("cluster.compare_s", wall("cluster.compare"), "s"),
      ("geo.wall_s", wall("geo"), "s"),
      ("TableIJob.wall_s", wall("TableIJob"), "s"),
      ("jvm.gc_s", perRun(_.gcSeconds), "s"),
      ("jvm.jit_s", perRun(_.jitSeconds), "s"),
      ("trace.run_s", perRun(_.seconds), "s"),
      ("trace.unattributed_s", perRun(a => a.seconds - tracer.spans.filter(_.run == a.run).map(_.seconds).sum), "s"),
      ("trace.overhead_s", perRun(a => tracer.overheadSeconds(a.run)), "s"),
      ("trace.spark_jobs", tracedJobs, "count"),
      ("trace.plain_spark_jobs", plainJobs, "count"),
    )
  }

  /** Everything a run measured, for reading after the fact: environment,
    * data shape, every attempt, every span and the per-span Spark counters.
    */
  private def writeDetail(attempts: Seq[Attempt], metrics: Seq[(String, Double, String)],
                          shapes: Seq[(String, Double)], sessionReadyS: Double,
                          setupS: Double): Unit = {
    val conf = spark.conf
    val settings = Seq("spark.master", "spark.sql.shuffle.partitions",
      "spark.sql.autoBroadcastJoinThreshold", "spark.sql.adaptive.enabled",
      "spark.sql.adaptive.coalescePartitions.enabled", "spark.sql.adaptive.skewJoin.enabled",
      "spark.serializer", "spark.local.dir")
      .map(k => k -> conf.getOption(k).orElse(sc.getConf.getOption(k)).getOrElse("(default)"))
    val env = settings ++ Seq(
      "spark.default.parallelism" -> sc.defaultParallelism.toString,
      "available_processors" -> Runtime.getRuntime.availableProcessors.toString,
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "spark_version" -> spark.version,
      "java_version" -> System.getProperty("java.version"),
      "java_vm" -> System.getProperty("java.vm.name"),
      "scala_version" -> scala.util.Properties.versionNumberString,
    )
    def obj(kv: Seq[(String, String)]) = kv.map { case (k, v) => s"${jsonString(k)}: $v" }.mkString("{", ", ", "}")
    val keys = tracer.spans.map(s => (s.run, s.name)).distinct
    val json = obj(Seq(
      "workload" -> jsonString(w.name),
      "sf" -> jsonNumber(w.sf),
      "seed" -> seed.toString,
      "trace" -> trace.toString,
      "env" -> obj(env.map { case (k, v) => k -> jsonString(v) }),
      "session_ready_s" -> jsonNumber(sessionReadyS),
      "setup_s" -> jsonNumber(setupS),
      "shapes" -> obj(shapes.map { case (k, v) => k -> jsonNumber(v) }),
      "metrics" -> obj(metrics.map { case (k, v, _) => k -> jsonNumber(v) }),
      "attempts" -> attempts.map(a => obj(Seq(
        "run" -> a.run.toString, "traced" -> a.traced.toString,
        "seconds" -> jsonNumber(a.seconds), "gc_s" -> jsonNumber(a.gcSeconds),
        "jit_s" -> jsonNumber(a.jitSeconds),
        "heap_after_gc_mb" -> jsonNumber(a.heapBytes / 1048576.0),
        "problems" -> a.problems.map(jsonString).mkString("[", ", ", "]")))).mkString("[", ",\n  ", "]"),
      "spans" -> tracer.spans.map(s => obj(Seq(
        "run" -> s.run.toString, "name" -> jsonString(s.name), "parent" -> jsonString(s.parent),
        "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString))).mkString("[", ",\n  ", "]"),
      "spark" -> obj(keys.map { case (r, n) =>
        val c = tracer.countersOf(r, n)
        s"$r/$n" -> obj(Seq(
          "jobs" -> c.jobs.toString, "stages" -> c.stages.toString, "tasks" -> c.tasks.toString,
          "shuffle_write_bytes" -> c.shuffleWriteBytes.toString,
          "shuffle_read_bytes" -> c.shuffleReadBytes.toString,
          "result_bytes" -> c.resultBytes.toString, "spill_bytes" -> c.spillBytes.toString,
          "executor_cpu_s" -> jsonNumber(c.executorCpuNs / 1e9),
          "job_busy_s" -> jsonNumber(c.jobBusySeconds)))
      }),
    ))
    Files.createDirectories(outDir)
    val file = outDir.resolve(s"${w.name}-seed$seed-trace${if (trace) 1 else 0}.json")
    Files.write(file, (json + "\n").getBytes(StandardCharsets.UTF_8))
    log(s"detail written to $file")
  }
}
