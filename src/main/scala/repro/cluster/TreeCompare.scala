package repro.cluster

/** Quantitative dendrogram comparison. The paper validates its cuisine
  * trees against the geography tree by visual inspection; we quantify the
  * same comparison with the Fowlkes–Mallows index averaged over flat cuts.
  */
object TreeCompare {

  /** Fowlkes–Mallows index B_k between two flat labelings. */
  def fowlkesMallows(a: Array[Int], b: Array[Int]): Double = {
    require(a.length == b.length, "labelings must cover the same points")
    val n = a.length
    var tk = 0.0; var pk = 0.0; var qk = 0.0
    for (i <- 0 until n; j <- i + 1 until n) {
      val sa = a(i) == a(j)
      val sb = b(i) == b(j)
      if (sa && sb) tk += 1
      if (sa) pk += 1
      if (sb) qk += 1
    }
    if (pk == 0 || qk == 0) 0.0 else tk / math.sqrt(pk * qk)
  }

  /** Mean Fowlkes–Mallows over cuts k in `ks` of both trees — a scalar
    * "how similar are these two hierarchies" score in [0, 1].
    */
  def meanFowlkesMallows(x: Dendrogram, y: Dendrogram, ks: Seq[Int]): Double = {
    require(x.nLeaves == y.nLeaves, "dendrograms must share the leaf set")
    require(ks.nonEmpty, "need at least one cut k")
    val vals = ks.map(k => fowlkesMallows(x.cut(k), y.cut(k)))
    vals.sum / vals.size
  }
}
