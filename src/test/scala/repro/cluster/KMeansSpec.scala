package repro.cluster

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.Laws
import repro.perfbench.Reference

class KMeansSpec extends AnyFunSuite {

  private def blob(rnd: scala.util.Random, center: Array[Double], n: Int, spread: Double) =
    Seq.fill(n)(center.map(_ + (rnd.nextDouble() - 0.5) * spread))

  /** Σ ‖x − mean‖² over the rows of one blob. */
  private def sqDeviations(rows: Seq[Array[Double]]): Double = {
    val mean = rows.transpose.map(_.sum / rows.size)
    rows.map(_.zip(mean).map { case (v, m) => (v - m) * (v - m) }.sum).sum
  }

  private def closeTo(a: Double, b: Double) =
    math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))

  test("k=1 center is the mean and WCSS is total variance * n") {
    val x = Array(Array(0.0, 0.0), Array(2.0, 0.0), Array(0.0, 2.0), Array(2.0, 2.0))
    val Seq((1, wcss)) = KMeans.elbow(x, Seq(1))
    assert(math.abs(wcss - 8.0) < 1e-9) // each point at squared distance 2 from (1, 1)
  }

  test("recovers well-separated clusters") {
    val rnd = new scala.util.Random(5)
    val a = blob(rnd, Array(0.0, 0.0), 20, 0.5)
    val b = blob(rnd, Array(10.0, 10.0), 20, 0.5)
    val c = blob(rnd, Array(-10.0, 10.0), 20, 0.5)
    val Seq((3, wcss)) = KMeans.elbow((a ++ b ++ c).toArray, Seq(3))
    // only the partition into the three blobs has this WCSS
    val expected = Seq(a, b, c).map(sqDeviations).sum
    assert(closeTo(wcss, expected), s"$wcss vs $expected")
  }

  test("deterministic") {
    val rnd = new scala.util.Random(6)
    val x = Seq.fill(30)(Array.fill(4)(rnd.nextDouble())).toArray
    assert(KMeans.elbow(x, 1 to 6) == KMeans.elbow(x, 1 to 6))
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
    assert(math.abs(KMeans.elbow(x, Seq(3)).head._2) < 1e-12)
  }

  test("invalid k is rejected") {
    val x = Array(Array(0.0), Array(1.0))
    intercept[IllegalArgumentException](KMeans.elbow(x, Seq(0)))
    intercept[IllegalArgumentException](KMeans.elbow(x, Seq(3)))
  }

  test("duplicate points do not crash (empty-cluster reseeding)") {
    val x = Array.fill(10)(Array(1.0, 1.0))
    assert(math.abs(KMeans.elbow(x, Seq(3)).head._2) < 1e-12)
  }

  test("elbow equals the benchmark's coordinate k-means on real-valued rows") {
    // Reference.elbow runs the same seeded restarts on the coordinates, not
    // on the Gram matrix, and shares no code with KMeans. Its tolerance is
    // the benchmark's own: 1e-9 relative, absolute below 1.
    val gen = for {
      n <- Gen.choose(3, 30)
      d <- Gen.choose(1, 40)
      x <- Gen.listOfN(n, Gen.listOfN(d, Gen.choose(-10.0, 10.0)).map(_.toArray))
    } yield x.toArray
    Laws.check(Prop.forAllNoShrink(gen) { x =>
      val ks = 1 to math.min(10, x.length)
      val (got, want) = (KMeans.elbow(x, ks), Reference.elbow(x, ks))
      val off = got.zip(want).collect {
        case ((k, g), (_, w)) if !(math.abs(g - w) <= 1e-9 * math.max(1.0, math.abs(w))) => (k, g, w)
      }
      (got.map(_._1) == ks && off.isEmpty) :|
        s"${x.length} x ${x.head.length} rows; (k, KMeans, Reference) apart: ${off.mkString(", ")}"
    }, 100)
  }

  test("scaling every row by 2 scales every WCSS by exactly 4") {
    // A power of two scales every distance exactly, so the k-means++ draws
    // and the Lloyd steps are those of the unscaled data.
    val rnd = new scala.util.Random(9)
    val x = Seq.fill(40)(Array.fill(3)(rnd.nextDouble() * 5)).toArray
    val ws = KMeans.elbow(x, 1 to 10)
    val scaled = KMeans.elbow(x.map(_.map(_ * 2)), 1 to 10)
    assert(scaled == ws.map { case (k, w) => k -> 4 * w })
  }

  test("translating every row leaves every WCSS unchanged") {
    val rnd = new scala.util.Random(10)
    val x = Seq(Array(0.0, 0.0, 0.0), Array(6.0, 6.0, 0.0), Array(-6.0, 6.0, 3.0), Array(0.0, -6.0, 6.0))
      .flatMap(blob(rnd, _, 12, 2.0)).toArray
    val shift = Array(3.5, -1.25, 7.0)
    val ws = KMeans.elbow(x, 1 to 10)
    val moved = KMeans.elbow(x.map(_.zip(shift).map { case (v, s) => v + s }), 1 to 10)
    ws.zip(moved).foreach { case ((k, w), (_, m)) => assert(closeTo(w, m), s"k=$k: $w vs $m") }
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
