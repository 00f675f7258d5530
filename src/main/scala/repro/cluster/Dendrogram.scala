package repro.cluster

import scala.collection.mutable

/** One agglomeration step: clusters `a` and `b` (scipy node ids: leaves are
  * 0..n-1, the cluster formed by merge t gets id n+t) merged at `height`
  * into a cluster of `size` leaves.
  */
final case class Merge(a: Int, b: Int, height: Double, size: Int)

/** The full agglomeration result — scipy's linkage matrix plus utilities:
  * flat cuts, cophenetic distances, Newick export and ASCII rendering.
  */
final case class Dendrogram(nLeaves: Int, merges: IndexedSeq[Merge]) {
  require(merges.length == nLeaves - 1,
    s"need ${nLeaves - 1} merges for $nLeaves leaves, got ${merges.length}")

  /** Leaf members of every internal node id n..2n-2 (and leaves 0..n-1). */
  lazy val members: IndexedSeq[Set[Int]] = {
    val out = mutable.ArrayBuffer.tabulate(nLeaves)(i => Set(i))
    merges.foreach(m => out += (out(m.a) ++ out(m.b)))
    out.toIndexedSeq
  }

  /** Flat clustering with k clusters: apply the first n-k merges.
    * Returns a label in [0, k) per leaf, canonicalised so that labels are
    * assigned in leaf order.
    */
  def cut(k: Int): Array[Int] = {
    require(k >= 1 && k <= nLeaves, s"k=$k outside [1, $nLeaves]")
    val parent = Array.tabulate(2 * nLeaves - 1)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); r }
    merges.take(nLeaves - k).zipWithIndex.foreach { case (m, t) =>
      val id = nLeaves + t
      parent(find(m.a)) = id
      parent(find(m.b)) = id
    }
    val roots = mutable.LinkedHashMap.empty[Int, Int]
    Array.tabulate(nLeaves) { i =>
      roots.getOrElseUpdate(find(i), roots.size)
    }
  }

  /** Cophenetic distance matrix: height at which each leaf pair is first
    * joined. The standard scalar summary of a dendrogram's geometry.
    */
  lazy val cophenetic: DistMatrix = {
    val out = new Array[Double](nLeaves * (nLeaves - 1) / 2)
    val dm = DistMatrix(nLeaves, out)
    merges.foreach { m =>
      for (i <- members(m.a); j <- members(m.b))
        out(dm.idx(i, j)) = m.height
    }
    dm
  }

  def copheneticOf(i: Int, j: Int): Double = cophenetic(i, j)

  /** Newick string of the tree's topology (no branch lengths), e.g. for
    * external viewers.
    */
  def newick(labels: IndexedSeq[String]): String = {
    require(labels.length == nLeaves, "one label per leaf required")
    def render(id: Int): String =
      if (id < nLeaves) labels(id).replaceAll("[(),;:]", "_")
      else {
        val m = merges(id - nLeaves)
        s"(${render(m.a)},${render(m.b)})"
      }
    render(2 * nLeaves - 2) + ";"
  }

  /** Compact ASCII rendering: one line per merge, smallest heights first. */
  def ascii(labels: IndexedSeq[String]): String = {
    def name(id: Int): String =
      if (id < nLeaves) labels(id)
      else members(id).toSeq.sorted.map(labels).mkString("{", ", ", "}")
    merges.zipWithIndex.map { case (m, t) =>
      f"${m.height}%8.4f  [${nLeaves + t}%3d] ${name(m.a)}  +  ${name(m.b)}"
    }.mkString("\n")
  }
}
