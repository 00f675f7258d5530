package repro.bench

import repro.SparkSpec
import repro.jobs.ReproJob

/** Reproduces Figure 1 (elbow method): k-means WCSS on the pattern feature
  * vectors for k = 1..10. The paper's point is negative — no sharp elbow
  * appears, so K-means cannot pick a cluster count and HAC is preferred.
  */
class ElbowBench extends SparkSpec {

  private val sf = BenchRun.sf

  private lazy val wcss: Seq[(Int, Double)] = BenchRun.results.wcss

  test(s"FIG 1: WCSS sweep for k=1..10 at SF=$sf") {
    println(s"\n=== Elbow reproduction (SF=$sf) ===")
    println(ReproJob.renderElbow(wcss))
    assert(wcss.map(_._1) == (1 to 10))
  }

  test("WCSS is non-increasing in k") {
    val ws = wcss.map(_._2)
    ws.zip(ws.tail).foreach { case (a, b) => assert(b <= a + 1e-6) }
  }

  test("no sharp elbow appears (the paper's Fig 1 finding)") {
    // A sharp elbow would be one k whose relative WCSS drop dwarfs all
    // later drops. Measure: max single-step relative drop after k=2.
    val ws = wcss.map(_._2)
    val drops = ws.zip(ws.tail).map { case (a, b) => if (a == 0) 0.0 else (a - b) / a }
    println(s"relative drops per k: ${drops.map(d => f"$d%.3f").mkString(", ")}")
    assert(drops.drop(1).max < 0.6,
      s"found an elbow-like drop: $drops")
  }
}
