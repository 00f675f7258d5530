package repro.cluster

import repro.cluster.Distance.sqEuclidean
import scala.util.Random

/** k-means (k-means++ init, Lloyd iterations) and the elbow/WCSS sweep of
  * the paper's Figure 1. Driver-side — 26 cuisine vectors do not
  * need a distributed implementation.
  */
object KMeans {

  final case class Result(centers: Array[Array[Double]], labels: Array[Int], wcss: Double)

  private val MaxSteps = 100
  private val Runs = 8
  private val Seed = 7L

  /** k-means++ seeding (Arthur & Vassilvitskii 2007). */
  private def seedCenters(x: Array[Array[Double]], k: Int, rnd: Random): Array[Array[Double]] = {
    val centers = new Array[Array[Double]](k)
    centers(0) = x(rnd.nextInt(x.length)).clone()
    val d2 = x.map(sqEuclidean(_, centers(0)))
    var c = 1
    while (c < k) {
      val totalW = d2.sum
      val chosen =
        if (totalW <= 0) rnd.nextInt(x.length)
        else {
          var r = rnd.nextDouble() * totalW
          var i = 0
          while (i < x.length - 1 && r > d2(i)) { r -= d2(i); i += 1 }
          i
        }
      centers(c) = x(chosen).clone()
      var i = 0
      while (i < x.length) { d2(i) = math.min(d2(i), sqEuclidean(x(i), centers(c))); i += 1 }
      c += 1
    }
    centers
  }

  private def fitOnce(x: Array[Array[Double]], k: Int, seed: Long): Result = {
    require(k >= 1 && k <= x.length, s"k=$k outside [1, ${x.length}]")
    val rnd = new Random(seed)
    val dim = x.head.length
    var centers = seedCenters(x, k, rnd)
    val labels = new Array[Int](x.length)
    var iter = 0
    var changed = true
    while (changed && iter < MaxSteps) {
      changed = false
      var i = 0
      while (i < x.length) {
        var best = 0
        var bd = sqEuclidean(x(i), centers(0))
        var c = 1
        while (c < k) {
          val d = sqEuclidean(x(i), centers(c))
          if (d < bd) { bd = d; best = c }
          c += 1
        }
        if (labels(i) != best) { labels(i) = best; changed = true }
        i += 1
      }
      val sums = Array.fill(k)(new Array[Double](dim))
      val cnts = new Array[Int](k)
      i = 0
      while (i < x.length) {
        val c = labels(i)
        cnts(c) += 1
        var dd = 0
        while (dd < dim) { sums(c)(dd) += x(i)(dd); dd += 1 }
        i += 1
      }
      centers = Array.tabulate(k) { c =>
        if (cnts(c) == 0) x(rnd.nextInt(x.length)).clone() // re-seed empty cluster
        else sums(c).map(_ / cnts(c))
      }
      iter += 1
    }
    val wcss = x.indices.map(i => sqEuclidean(x(i), centers(labels(i)))).sum
    Result(centers, labels, wcss)
  }

  /** Best of eight runs (lowest WCSS), each with a fixed seed, so the
    * result is deterministic.
    */
  def fit(x: Array[Array[Double]], k: Int): Result =
    (0 until Runs).map(r => fitOnce(x, k, Seed + r * 1000003L)).minBy(_.wcss)

  /** WCSS for each k — the numbers behind the paper's elbow plot (Fig 1). */
  def elbow(x: Array[Array[Double]], ks: Seq[Int]): Seq[(Int, Double)] =
    ks.map(k => k -> fit(x, k).wcss)
}
