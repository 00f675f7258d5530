package repro.cluster

import org.scalatest.funsuite.AnyFunSuite

class KMeansSpec extends AnyFunSuite {

  private def blob(rnd: scala.util.Random, center: Array[Double], n: Int, spread: Double) =
    Seq.fill(n)(center.map(_ + (rnd.nextDouble() - 0.5) * spread))

  test("k=1 center is the mean and WCSS is total variance * n") {
    val x = Array(Array(0.0, 0.0), Array(2.0, 0.0), Array(0.0, 2.0), Array(2.0, 2.0))
    val r = KMeans.fit(x, 1)
    assert(r.centers.length == 1)
    assert(r.centers(0).toSeq == Seq(1.0, 1.0))
    assert(math.abs(r.wcss - 8.0) < 1e-9) // each point at squared distance 2
  }

  test("recovers well-separated clusters") {
    val rnd = new scala.util.Random(5)
    val a = blob(rnd, Array(0.0, 0.0), 20, 0.5)
    val b = blob(rnd, Array(10.0, 10.0), 20, 0.5)
    val c = blob(rnd, Array(-10.0, 10.0), 20, 0.5)
    val x = (a ++ b ++ c).toArray
    val r = KMeans.fit(x, 3)
    // all points of one blob share a label, and the three labels differ
    val la = (0 until 20).map(r.labels).distinct
    val lb = (20 until 40).map(r.labels).distinct
    val lc = (40 until 60).map(r.labels).distinct
    assert(la.size == 1 && lb.size == 1 && lc.size == 1)
    assert(Set(la.head, lb.head, lc.head).size == 3)
  }

  test("deterministic") {
    val rnd = new scala.util.Random(6)
    val x = Seq.fill(30)(Array.fill(4)(rnd.nextDouble())).toArray
    val r1 = KMeans.fit(x, 4)
    val r2 = KMeans.fit(x, 4)
    assert(r1.wcss == r2.wcss)
    assert(r1.labels.toSeq == r2.labels.toSeq)
  }

  test("WCSS is non-increasing in k (best-of-restarts)") {
    val rnd = new scala.util.Random(7)
    val x = Seq.fill(40)(Array.fill(3)(rnd.nextDouble() * 5)).toArray
    val sweep = KMeans.elbow(x, 1 to 8)
    val ws = sweep.map(_._2)
    ws.zip(ws.tail).foreach { case (a, b) => assert(b <= a + 1e-6, sweep.toString) }
  }

  test("k equal to n gives zero WCSS") {
    val x = Array(Array(0.0), Array(5.0), Array(9.0))
    val r = KMeans.fit(x, 3)
    assert(r.wcss < 1e-12)
  }

  test("labels are within [0, k)") {
    val rnd = new scala.util.Random(8)
    val x = Seq.fill(25)(Array.fill(2)(rnd.nextDouble())).toArray
    val r = KMeans.fit(x, 5)
    assert(r.labels.forall(l => l >= 0 && l < 5))
  }

  test("invalid k is rejected") {
    val x = Array(Array(0.0), Array(1.0))
    intercept[IllegalArgumentException](KMeans.fit(x, 0))
    intercept[IllegalArgumentException](KMeans.fit(x, 3))
  }

  test("duplicate points do not crash (empty-cluster reseeding)") {
    val x = Array.fill(10)(Array(1.0, 1.0))
    val r = KMeans.fit(x, 3)
    assert(r.wcss < 1e-12)
  }

  test("elbow on structureless data shows no sharp elbow (paper Fig 1 claim)") {
    // Uniform random data: WCSS decays smoothly; the relative drop from k
    // to k+1 should never be overwhelming (no dominant elbow).
    val rnd = new scala.util.Random(17)
    val x = Seq.fill(60)(Array.fill(5)(rnd.nextDouble())).toArray
    val ws = KMeans.elbow(x, 1 to 8).map(_._2)
    val drops = ws.zip(ws.tail).map { case (a, b) => (a - b) / a }
    assert(drops.max < 0.55, s"sharp elbow found: $drops")
  }
}
