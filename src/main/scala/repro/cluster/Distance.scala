package repro.cluster

/** Symmetric pairwise-distance matrix over n observations, stored in
  * scipy-style condensed form (upper triangle, row-major).
  */
final case class DistMatrix(n: Int, condensed: Array[Double]) {
  require(condensed.length == n * (n - 1) / 2,
    s"condensed length ${condensed.length} does not match n=$n")

  /** Index of (i, j), i != j, in the condensed array. */
  def idx(i: Int, j: Int): Int = {
    require(i != j && i >= 0 && j >= 0 && i < n && j < n, s"bad pair ($i,$j) for n=$n")
    val (a, b) = if (i < j) (i, j) else (j, i)
    a * n - a * (a + 1) / 2 + (b - a - 1)
  }

  def apply(i: Int, j: Int): Double = if (i == j) 0.0 else condensed(idx(i, j))
}

/** Distance metrics over dense vectors + pdist.
  *
  * The paper's equations (3)-(5) are typo'd (Jaccard printed as
  * union/intersection, cosine without the 1 - ..., Euclidean missing the
  * cross term); we implement the standard definitions that the scipy
  * pipeline the paper describes actually computes.
  */
object Distance {

  type Metric = (Array[Double], Array[Double]) => Double

  def dot(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var s = 0.0
    var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  val euclidean: Metric = (a, b) => {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** 1 - cos(a, b); distance 0 for two zero vectors, 1 if exactly one is zero. */
  val cosine: Metric = (a, b) => {
    val na = math.sqrt(dot(a, a))
    val nb = math.sqrt(dot(b, b))
    if (na == 0.0 && nb == 0.0) 0.0
    else if (na == 0.0 || nb == 0.0) 1.0
    else {
      val c = dot(a, b) / (na * nb)
      1.0 - math.max(-1.0, math.min(1.0, c))
    }
  }

  /** Jaccard distance for binary (0/1) vectors: 1 - |A ∩ B| / |A ∪ B|.
    * Values > 0.5 count as present, matching scipy's boolean handling of
    * the paper's label-encoded indicator vectors.
    */
  val jaccard: Metric = (a, b) => {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var inter = 0
    var union = 0
    var i = 0
    while (i < a.length) {
      val x = a(i) > 0.5
      val y = b(i) > 0.5
      if (x && y) inter += 1
      if (x || y) union += 1
      i += 1
    }
    if (union == 0) 0.0 else 1.0 - inter.toDouble / union
  }

  def byName(name: String): Metric = name.toLowerCase match {
    case "euclidean" => euclidean
    case "cosine"    => cosine
    case "jaccard"   => jaccard
    case other       => throw new IllegalArgumentException(s"unknown metric: $other")
  }

  /** Condensed pairwise distance matrix (scipy pdist). */
  def pdist(vectors: Seq[Array[Double]], metric: Metric): DistMatrix = {
    val n = vectors.size
    val v = vectors.toArray
    val out = new Array[Double](n * (n - 1) / 2)
    var k = 0
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        out(k) = metric(v(i), v(j))
        k += 1
        j += 1
      }
      i += 1
    }
    DistMatrix(n, out)
  }
}
