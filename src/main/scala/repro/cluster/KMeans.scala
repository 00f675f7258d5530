package repro.cluster

import scala.util.Random

/** k-means (k-means++ init, Lloyd iterations) and the elbow/WCSS sweep of
  * the paper's Figure 1. Driver-side — 26 cuisine vectors do not
  * need a distributed implementation.
  *
  * Every centre is the mean of a set of rows: one row when k-means++ seeds
  * or re-seeds it, a cluster's members after a Lloyd step. So every distance
  * follows from the Gram matrix G = X·Xᵀ, built once per sweep (kernel
  * k-means with a linear kernel; Dhillon, Guan & Kulis 2004).
  */
object KMeans {

  private val MaxSteps = 100
  private val Runs = 8
  private val Seed = 7L

  /** Squared distance of every row i to the mean μ of the rows S, by row:
    * ‖x_i − μ‖² = (|S|²·G_ii − 2|S|·Σ_{j∈S} G_ij + Σ_{j,l∈S} G_jl) / |S|².
    * Each row sum s_i = Σ_{j∈S} G_ij is added left to right in `rows` order,
    * and Σ_{j,l∈S} G_jl is the sum of s_j over S in the same order.
    * On binary rows the numerator is an exact integer, so two equal distances
    * compare equal and a tie goes to the lower centre index.
    */
  private def sqDistTo(g: Array[Array[Double]], rows: Array[Int]): Array[Double] = {
    val n = g.length
    val s = new Array[Double](n)
    var i = 0
    while (i < n) {
      val gi = g(i)
      var acc = gi(rows(0))
      var j = 1
      while (j < rows.length) { acc += gi(rows(j)); j += 1 }
      s(i) = acc
      i += 1
    }
    var self = s(rows(0))
    var j = 1
    while (j < rows.length) { self += s(rows(j)); j += 1 }
    val m = rows.length.toDouble
    i = 0
    while (i < n) {
      s(i) = (m * m * g(i)(i) - 2 * m * s(i) + self) / (m * m)
      i += 1
    }
    s
  }

  private def wcssOnce(g: Array[Array[Double]], k: Int, seed: Long): Double = {
    val n = g.length
    val rnd = new Random(seed)
    // k-means++ seeding (Arthur & Vassilvitskii 2007)
    val centres = new Array[Array[Double]](k)
    centres(0) = sqDistTo(g, Array(rnd.nextInt(n)))
    val d2 = centres(0).clone()
    for (c <- 1 until k) {
      val totalW = d2.sum
      val chosen =
        if (totalW <= 0) rnd.nextInt(n)
        else {
          var r = rnd.nextDouble() * totalW
          var i = 0
          while (i < n - 1 && r > d2(i)) { r -= d2(i); i += 1 }
          i
        }
      centres(c) = sqDistTo(g, Array(chosen))
      for (i <- 0 until n) d2(i) = math.min(d2(i), centres(c)(i))
    }
    val labels = new Array[Int](n)
    var steps = 0
    var changed = true
    while (changed && steps < MaxSteps) {
      changed = false
      for (i <- 0 until n) {
        var best = 0
        var bd = centres(0)(i)
        for (c <- 1 until k) {
          val d = centres(c)(i)
          if (d < bd) { bd = d; best = c }
        }
        if (labels(i) != best) { labels(i) = best; changed = true }
      }
      for (c <- 0 until k) {
        val members = (0 until n).filter(labels(_) == c).toArray
        // re-seed an empty cluster with a random row
        centres(c) = sqDistTo(g, if (members.isEmpty) Array(rnd.nextInt(n)) else members)
      }
      steps += 1
    }
    (0 until n).map(i => centres(labels(i))(i)).sum
  }

  /** WCSS for each k — the numbers behind the paper's elbow plot (Fig 1).
    * Each is the best (lowest) of eight runs with fixed seeds, so the sweep
    * is deterministic.
    */
  def elbow(x: Array[Array[Double]], ks: Seq[Int]): Seq[(Int, Double)] = {
    val g = x.map(a => x.map(Distance.dot(a, _)))
    ks.map { k =>
      require(k >= 1 && k <= x.length, s"k=$k outside [1, ${x.length}]")
      k -> (0 until Runs).map(r => wcssOnce(g, k, Seed + r * 1000003L)).min
    }
  }
}
