package repro.cluster

/** Average-linkage (UPGMA) hierarchical agglomerative clustering over a
  * precomputed distance matrix, as the paper feeds scipy `linkage` a
  * condensed pdist matrix.
  *
  * At each step the two active clusters with the smallest mean leaf-to-leaf
  * distance merge at that mean. The distances from the new cluster are the
  * size-weighted means of its two parts' distances (Lance–Williams), on a
  * full working matrix: O(n^3), entirely adequate for n = 26 cuisines.
  */
object Hac {

  /** The linkage criterion. Average linkage is the only one; `cluster`
    * keeps the parameter because the benchmark harness names it.
    */
  sealed trait Linkage
  case object Average extends Linkage

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
          val updated = (ni * d(i)(k) + nj * d(j)(k)) / (ni + nj)
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
