package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One timed call into a layer, recorded by the harness around the layer's
  * public entry point. `run` identifies the reproduction (0 = set-up) and
  * `parent` the span that caused it: "reproduction" or "setup".
  */
final case class Span(run: Int, name: String, parent: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spark work attributed to one span name within one run. */
final class SparkCounters {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var shuffleWriteBytes = 0L
  var shuffleReadBytes = 0L
  var resultBytes = 0L
  var spillBytes = 0L
  var executorCpuNs = 0L
  var listenerNs = 0L // time the listener spent filing this span's events
  val jobIntervalsMs = mutable.ArrayBuffer.empty[(Long, Long)]

  /** Time with at least one job of this span running: union of job intervals. */
  def jobBusySeconds: Double = {
    var busy = 0L
    var curStart = Long.MinValue
    var curEnd = Long.MinValue
    jobIntervalsMs.sortBy(_._1).foreach { case (s, e) =>
      if (s > curEnd) {
        busy += curEnd - curStart
        curStart = s
        curEnd = e
      } else curEnd = math.max(curEnd, e)
    }
    busy += curEnd - curStart
    busy / 1e3
  }
}

object Tracer {
  /** Spark local property that carries "<run>/<span name>" to the listener. */
  val SpanProperty = "perfbench.span"
  val Unattributed = "unattributed"
}

/** Records spans around layer calls and files Spark's work under the span
  * whose call started it. Before each call the span key is set as a Spark
  * local property; jobs inherit it, and the listener maps job → stages →
  * tasks to that key. Everything is kept in memory until the run ends.
  */
final class Tracer(sc: SparkContext) extends SparkListener {
  import Tracer._

  private val spanLog = mutable.ArrayBuffer.empty[Span]
  private val bookkeepingNs = mutable.Map.empty[Int, Long].withDefaultValue(0L)
  private var run = 0

  // Written on the listener-bus thread, read on the driver after drain().
  private val counters = mutable.Map.empty[String, SparkCounters]
  private val jobKey = mutable.Map.empty[Int, String]
  private val jobStartMs = mutable.Map.empty[Int, Long]
  private val stageKey = mutable.Map.empty[Int, String]

  def beginRun(id: Int): Unit = run = id

  def span[A](name: String)(body: => A): A = {
    val b0 = System.nanoTime()
    val saved = sc.getLocalProperty(SpanProperty)
    sc.setLocalProperty(SpanProperty, s"$run/$name")
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      spanLog += Span(run, name, if (run == 0) "setup" else "reproduction", t0, t1)
      sc.setLocalProperty(SpanProperty, saved)
      bookkeepingNs(run) += (t0 - b0) + (System.nanoTime() - t1)
    }
  }

  /** Runs `body` with the Spark work it starts filed under `name` in the
    * current run, without recording a span; spans inside it take precedence.
    */
  def tag[A](name: String)(body: => A): A = {
    val saved = sc.getLocalProperty(SpanProperty)
    sc.setLocalProperty(SpanProperty, s"$run/$name")
    try body
    finally sc.setLocalProperty(SpanProperty, saved)
  }

  def spans: Seq[Span] = spanLog.toSeq

  /** Waits for the listener to see every event posted so far. */
  def drain(): Unit = org.apache.spark.perfbench.ListenerBusDrain(sc)

  /** Counters of span `name` in run `id` (all zero if it started no job). */
  def countersOf(id: Int, name: String): SparkCounters = synchronized {
    counters.getOrElse(s"$id/$name", new SparkCounters)
  }

  /** Time tracing itself cost in run `id`: span bookkeeping on the driver
    * thread plus the listener's work on the listener-bus thread.
    */
  def overheadSeconds(id: Int): Double = synchronized {
    val listener = counters.collect { case (k, c) if k.startsWith(s"$id/") => c.listenerNs }.sum
    (bookkeepingNs(id) + listener) / 1e9
  }

  /** Spark jobs started in run `id`, over all its spans and tags. */
  def jobsIn(id: Int): Long = synchronized {
    counters.collect { case (k, c) if k.startsWith(s"$id/") => c.jobs }.sum
  }

  private def of(key: String): SparkCounters = counters.getOrElseUpdate(key, new SparkCounters)

  /** Runs `f` on the counters of `key` and charges its time to them. */
  private def file(key: String)(f: SparkCounters => Unit): Unit = {
    val t0 = System.nanoTime()
    val c = of(key)
    f(c)
    c.listenerNs += System.nanoTime() - t0
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val key = Option(e.properties).flatMap(p => Option(p.getProperty(SpanProperty)))
      .getOrElse(Unattributed)
    file(key) { c =>
      jobKey(e.jobId) = key
      jobStartMs(e.jobId) = e.time
      e.stageIds.foreach(stageKey(_) = key)
      c.jobs += 1
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    for (key <- jobKey.remove(e.jobId); start <- jobStartMs.remove(e.jobId))
      file(key)(_.jobIntervalsMs += (start -> e.time))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageKey.get(e.stageInfo.stageId).foreach(file(_)(_.stages += 1))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    for (key <- stageKey.get(e.stageId) if m != null) file(key) { c =>
      c.tasks += 1
      c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      c.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      c.resultBytes += m.resultSize
      c.spillBytes += m.memoryBytesSpilled + m.diskBytesSpilled
      c.executorCpuNs += m.executorCpuTime
    }
  }
}
