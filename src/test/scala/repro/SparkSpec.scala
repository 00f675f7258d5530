package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run,
  * built as `repro.jobs.ReproJob` builds its own (master and app name only),
  * so the tests run on Spark's default settings, as users do.
  *
  * The forked test JVM's driver heap (``-Xmx``) is set in build.sbt:
  * SPARK_DRIVER_MEM if it is set, else half of the machine's memory
  * (``MemTotal`` in /proc/meminfo) clamped to 2–8 GB.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Runs `body` and returns its result with the number of Spark jobs it
    * started on this thread. The jobs are tagged with a local property and
    * counted by a `SparkListener`; a marker job started afterwards tells
    * when the listener bus has delivered every counted job.
    */
  def sparkJobsOf[A](body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val tag = "repro.test.span"
    val jobs = new AtomicInteger(0)
    val markerSeen = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty(tag)) match {
          case Some("body") => jobs.incrementAndGet()
          case Some("marker") => markerSeen.countDown()
          case _ =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(tag, "body")
      val out = body
      // Listener events arrive in order: once the marker job is seen, every
      // job of `body` has been seen too.
      sc.setLocalProperty(tag, "marker")
      spark.range(1).count()
      assert(markerSeen.await(60, TimeUnit.SECONDS), "marker job never reached the listener")
      (out, jobs.get)
    } finally {
      sc.setLocalProperty(tag, null)
      sc.removeSparkListener(listener)
    }
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
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
}
