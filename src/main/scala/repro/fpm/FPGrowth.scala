package repro.fpm

import java.util.Arrays
import scala.collection.mutable

/** One mined frequent itemset with absolute and relative frequency. */
final case class FreqItemset(items: Seq[String], freq: Long, support: Double)

/** FP-Growth (Han, Pei & Yin, SIGMOD 2000), the miner the paper ran on each
  * cuisine, as a recursion over conditional pattern bases kept as plain
  * rank arrays rather than compressed into an FP-tree: at support 0.2
  * recipes seldom share long prefixes, so the tree would save little
  * (Pei et al., H-Mine, ICDM 2001).
  *
  * `core.PatternMiner` runs [[mineLocal]] once per cuisine inside one Spark
  * pass; the largest cuisine, Italian, has 16.6k recipes at SF=1, so one
  * cuisine easily fits in a task. The test suite checks it against Spark
  * MLlib's Parallel FP-Growth (`ml.fpm.FPGrowth`, Li et al., RecSys 2008),
  * a distributed Apriori and brute-force enumeration.
  */
object FPGrowth {

  /** minCount such that freq/total >= minSupport  <=>  freq >= minCount. */
  def minCountFor(minSupport: Double, total: Long): Long =
    math.ceil(minSupport * total).toLong

  /** Mine frequent itemsets from an in-memory collection of transactions,
    * in whichever JVM calls it.
    *
    * @param transactions one item sequence per transaction (duplicates
    *                     within a transaction are ignored)
    * @param minSupport   relative support threshold in (0, 1]
    */
  def mineLocal(transactions: Seq[Seq[String]], minSupport: Double): Seq[FreqItemset] = {
    require(minSupport > 0 && minSupport <= 1, s"minSupport $minSupport outside (0,1]")
    val total = transactions.size.toLong
    require(total > 0, "cannot mine an empty transaction set")
    val minCount = minCountFor(minSupport, total)
    val counts = mutable.Map.empty[String, Long].withDefaultValue(0L)
    transactions.foreach(_.distinct.foreach(i => counts(i) += 1))
    val items = counts.toArray.filter(_._2 >= minCount).sortBy { case (i, c) => (-c, i) }.map(_._1)
    val rank = items.zipWithIndex.toMap
    val out = Seq.newBuilder[FreqItemset]
    // `base` is the conditional pattern base of `suffix`: for each
    // transaction holding all of `suffix`, its sorted ranks below
    // `suffix.head`, less those already infrequent alongside `suffix`.
    def grow(base: Array[Array[Int]], suffix: List[Int]): Unit = {
      val count = new Array[Long](items.length)
      base.foreach(_.foreach(r => count(r) += 1))
      for (r <- items.indices if count(r) >= minCount) {
        out += FreqItemset((r :: suffix).map(items).sorted, count(r), count(r).toDouble / total)
        grow(base.flatMap { t =>
          val at = Arrays.binarySearch(t, r)
          if (at < 0) None else Some(t.take(at).filter(count(_) >= minCount))
        }, r :: suffix)
      }
    }
    grow(transactions.iterator.map(_.flatMap(rank.get).distinct.sorted.toArray).toArray, Nil)
    out.result()
  }
}
