package repro.fpm

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

  /** Maximal frequent itemsets: those with no frequent strict superset.
    * A strict superset is a larger superset, so the size test comes first
    * and most of the O(m^2) pairs need no subset check.
    */
  def maximal(itemsets: Seq[FreqItemset]): Seq[FreqItemset] = {
    val sets = itemsets.map(_.items.toSet)
    itemsets.zip(sets).collect {
      case (fi, s) if !sets.exists(o => s.size < o.size && s.subsetOf(o)) => fi
    }
  }

  /** Top maximal itemsets ordered by (support desc, size desc, lexicographic). */
  def topMaximal(itemsets: Seq[FreqItemset], k: Int): Seq[FreqItemset] =
    maximal(itemsets)
      .sortBy(fi => (-fi.support, -fi.items.size, patternString(fi.items)))
      .take(k)

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
