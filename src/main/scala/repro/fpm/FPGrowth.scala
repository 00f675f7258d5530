package repro.fpm

import scala.collection.mutable

/** One mined frequent itemset with absolute and relative frequency. */
final case class FreqItemset(items: Seq[String], freq: Long, support: Double)

/** Single-tree FP-Growth (Han, Pei & Yin, SIGMOD 2000), the miner the
  * paper ran on each cuisine.
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
    val ranked = counts.toSeq.filter(_._2 >= minCount).sortBy { case (i, c) => (-c, i) }
    val rank = ranked.iterator.map(_._1).zipWithIndex.toMap
    val tree = new FPTree[String]
    transactions.foreach { t =>
      tree.add(t.distinct.flatMap(i => rank.get(i).map(_ => i)).sortBy(rank))
    }
    tree.extract(minCount).map { case (items, cnt) =>
      FreqItemset(items.sorted, cnt, cnt.toDouble / total)
    }.toSeq
  }
}
