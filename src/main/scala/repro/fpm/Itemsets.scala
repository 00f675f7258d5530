package repro.fpm

import scala.collection.mutable

/** Utilities over mined itemset collections: canonical "string patterns"
  * (§VI.A of the paper), maximal itemsets, and comparisons between miner
  * outputs.
  */
object Itemsets {

  /** The paper's canonicalisation: sort the items and join — "All the
    * elements of this list are appended and converted into a string
    * resulting in a 'string pattern'".
    */
  def patternString(items: Iterable[String]): String =
    items.toSeq.sorted.mkString(" + ")

  /** Maximal frequent itemsets: those with no frequent strict superset, in
    * list order. Each distinct item of the list gets one bit position, so an
    * itemset is a mask of `Long` words and its size the mask's popcount. A
    * strict superset is a larger superset, so the size test comes first and
    * most of the O(m^2) pairs need no subset check; `a` is a subset of `b`
    * when `a & ~b` is zero in every word.
    */
  def maximal(itemsets: Seq[FreqItemset]): Seq[FreqItemset] = {
    val bitOf = mutable.HashMap.empty[String, Int]
    itemsets.foreach(_.items.foreach(item => bitOf.getOrElseUpdate(item, bitOf.size)))
    val words = (bitOf.size + 63) >>> 6
    val masks = itemsets.iterator.map { fi =>
      val mask = new Array[Long](words)
      fi.items.foreach { item => val b = bitOf(item); mask(b >>> 6) |= 1L << b }
      mask
    }.toArray
    val sizes = masks.map(_.foldLeft(0)(_ + java.lang.Long.bitCount(_)))
    def strictSubset(a: Int, b: Int): Boolean = sizes(a) < sizes(b) && {
      val (ma, mb) = (masks(a), masks(b))
      var w = 0
      while (w < words && (ma(w) & ~mb(w)) == 0L) w += 1
      w == words
    }
    itemsets.iterator.zipWithIndex.collect {
      case (fi, a) if !masks.indices.exists(strictSubset(a, _)) => fi
    }.toSeq
  }

  /** Top maximal itemsets ordered by (support desc, size desc, lexicographic).
    * Each sort key is computed once, not at every comparison.
    */
  def topMaximal(itemsets: Seq[FreqItemset], k: Int): Seq[FreqItemset] =
    maximal(itemsets)
      .map(fi => (-fi.support, -fi.items.size, patternString(fi.items)) -> fi)
      .sortBy(_._1)
      .take(k)
      .map(_._2)

  /** Exact-equality check between two miner outputs (same itemsets, same
    * counts). Returns a human-readable diff, empty when equal.
    */
  def diff(a: Seq[FreqItemset], b: Seq[FreqItemset]): Seq[String] = {
    val ma = a.map(fi => fi.items.toSet -> fi.freq).toMap
    val mb = b.map(fi => fi.items.toSet -> fi.freq).toMap
    val onlyA = ma.keySet.diff(mb.keySet).toSeq.map(s => s"only in A: ${patternString(s)}")
    val onlyB = mb.keySet.diff(ma.keySet).toSeq.map(s => s"only in B: ${patternString(s)}")
    val mismatch = ma.keySet.intersect(mb.keySet).toSeq.collect {
      case s if ma(s) != mb(s) => s"count mismatch ${patternString(s)}: ${ma(s)} vs ${mb(s)}"
    }
    (onlyA ++ onlyB ++ mismatch).sorted
  }
}
