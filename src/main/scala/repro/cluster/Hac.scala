package repro.cluster

/** Hierarchical agglomerative clustering over a precomputed distance matrix
  * (the paper feeds scipy `linkage` a condensed pdist matrix).
  *
  * Implemented via Lance–Williams updates on a full working matrix —
  * O(n^3), entirely adequate for n = 26 cuisines. Single, complete and
  * average (UPGMA) linkage work with any metric; Ward assumes Euclidean
  * input distances.
  */
object Hac {

  sealed trait Linkage { def name: String }
  case object Single   extends Linkage { val name = "single" }
  case object Complete extends Linkage { val name = "complete" }
  case object Average  extends Linkage { val name = "average" }
  case object Ward     extends Linkage { val name = "ward" }

  def cluster(dist: DistMatrix, linkage: Linkage = Average): Dendrogram = {
    val n = dist.n
    require(n >= 1, "need at least one observation")
    if (n == 1) return Dendrogram(1, Vector.empty)

    // Working distances between active clusters, keyed by scipy node id.
    val d = Array.ofDim[Double](2 * n - 1, 2 * n - 1)
    for (i <- 0 until n; j <- 0 until n) d(i)(j) = dist(i, j)
    val size = Array.fill(2 * n - 1)(0)
    (0 until n).foreach(size(_) = 1)
    val active = scala.collection.mutable.LinkedHashSet.tabulate(n)(identity)

    val merges = Vector.newBuilder[Merge]
    var nextId = n
    while (active.size > 1) {
      // find the closest active pair (deterministic tie-break on ids)
      var bi = -1; var bj = -1; var best = Double.PositiveInfinity
      val act = active.toArray
      var x = 0
      while (x < act.length) {
        var y = x + 1
        while (y < act.length) {
          val dij = d(act(x))(act(y))
          if (dij < best) { best = dij; bi = act(x); bj = act(y) }
          y += 1
        }
        x += 1
      }
      val (i, j) = (math.min(bi, bj), math.max(bi, bj))
      val ni = size(i).toDouble
      val nj = size(j).toDouble
      // Lance–Williams update for every other active cluster k
      active.foreach { k =>
        if (k != i && k != j) {
          val dik = d(i)(k)
          val djk = d(j)(k)
          val nk = size(k).toDouble
          val updated = linkage match {
            case Single   => math.min(dik, djk)
            case Complete => math.max(dik, djk)
            case Average  => (ni * dik + nj * djk) / (ni + nj)
            case Ward =>
              math.sqrt(
                ((nk + ni) * dik * dik + (nk + nj) * djk * djk - nk * best * best) /
                  (nk + ni + nj))
          }
          d(nextId)(k) = updated
          d(k)(nextId) = updated
        }
      }
      size(nextId) = size(i) + size(j)
      active -= i
      active -= j
      active += nextId
      merges += Merge(i, j, best, size(nextId))
      nextId += 1
    }
    Dendrogram(n, merges.result())
  }
}
