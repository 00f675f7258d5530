package repro.cluster

/** Correlation checks on dendrograms that only the tests read: the paper's
  * comparison with geography is [[TreeCompare]]'s Fowlkes–Mallows index.
  */
object TreeCorrelation {

  /** Pearson correlation between two condensed matrices (e.g. cophenetic
    * matrices of two dendrograms over the same leaves).
    */
  def pearson(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length && a.length >= 2, "need matching arrays of length >= 2")
    val n = a.length
    val ma = a.sum / n
    val mb = b.sum / n
    var sab = 0.0; var sa = 0.0; var sb = 0.0
    var i = 0
    while (i < n) {
      val da = a(i) - ma
      val db = b(i) - mb
      sab += da * db; sa += da * da; sb += db * db
      i += 1
    }
    if (sa == 0 || sb == 0) 0.0 else sab / math.sqrt(sa * sb)
  }

  /** Cophenetic correlation between a dendrogram and raw distances — the
    * classic measure of how faithfully a tree represents its input.
    */
  def copheneticCorrelation(x: Dendrogram, d: DistMatrix): Double = {
    require(x.nLeaves == d.n, "dimension mismatch")
    pearson(x.cophenetic.condensed, d.condensed)
  }
}
