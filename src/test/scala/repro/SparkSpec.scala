package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** Base for every test: one local-mode SparkSession for the whole run,
  * built as `repro.jobs.ReproJob` builds its own (master and app name only),
  * so the tests run on Spark's default settings, as users do.
  *
  * The forked test JVM's driver heap (``-Xmx``) is set in build.sbt:
  * SPARK_DRIVER_MEM if it is set, else half of the machine's memory
  * (``MemTotal`` in /proc/meminfo) clamped to 2–8 GB.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Starts the shared session before the suite's first test, so that no
    * test's duration in the log carries the session's start-up.
    */
  override def beforeAll(): Unit = { super.beforeAll(); val _ = spark }
}

object SparkSpec {

  /** Spark jobs, stages that ran, stages among them that wrote shuffle
    * output, their shuffle bytes, and SQL executions.
    */
  final case class Activity(jobs: Int, stages: Int, shuffles: Int,
                            shuffleReadBytes: Long, shuffleWriteBytes: Long, sqlExecutions: Int)

  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.props.getOrElse("spark.master", "local[*]"))
      .appName("repro").getOrCreate()
    // One line in test output that records the memory setting and the
    // parallelism the run actually used.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }

  /** Runs `body` and returns its result with what Spark did for it on this
    * thread. The work is tagged with a job tag, which Spark copies into the
    * events of its jobs and SQL executions, and counted by a `SparkListener`;
    * a marker job started afterwards tells when the listener bus has
    * delivered every counted event.
    */
  def sparkActivityOf[A](body: => A): (A, Activity) = {
    val sc = shared.sparkContext
    val (bodyTag, markerTag) = ("repro-test-body", "repro-test-marker")
    val markerSeen = new CountDownLatch(1)
    // Written on the listener bus thread only; the latch publishes them.
    var activity = Activity(0, 0, 0, 0L, 0L, 0)
    val stageIds = mutable.Set.empty[Int]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        val tags = Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.tags")))
          .fold(Set.empty[String])(_.split(",").toSet)
        if (tags(bodyTag)) {
          activity = activity.copy(jobs = activity.jobs + 1)
          stageIds ++= e.stageIds
        } else if (tags(markerTag)) markerSeen.countDown()
      }
      // Skipped stages post no completion, so only stages that ran count.
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
        if (stageIds(e.stageInfo.stageId)) {
          val m = e.stageInfo.taskMetrics
          activity = activity.copy(
            stages = activity.stages + 1,
            shuffles = activity.shuffles + (if (m.shuffleWriteMetrics.bytesWritten > 0) 1 else 0),
            shuffleReadBytes = activity.shuffleReadBytes + m.shuffleReadMetrics.totalBytesRead,
            shuffleWriteBytes = activity.shuffleWriteBytes + m.shuffleWriteMetrics.bytesWritten)
        }
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case s: SparkListenerSQLExecutionStart if s.jobTags(bodyTag) =>
          activity = activity.copy(sqlExecutions = activity.sqlExecutions + 1)
        case _ =>
      }
    }
    sc.addSparkListener(listener)
    try {
      sc.addJobTag(bodyTag)
      val out = try body finally sc.removeJobTag(bodyTag)
      // Listener events arrive in order: once the marker job is seen, every
      // event of `body` has been seen too.
      sc.addJobTag(markerTag)
      try shared.range(1).count() finally sc.removeJobTag(markerTag)
      assert(markerSeen.await(60, TimeUnit.SECONDS), "marker job never reached the listener")
      (out, activity)
    } finally sc.removeSparkListener(listener)
  }
}
