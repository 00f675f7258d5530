package repro.fpm

import org.apache.spark.sql.Dataset
import scala.collection.mutable

/** One mined frequent itemset with absolute and relative frequency. */
final case class FreqItemset(items: Seq[String], freq: Long, support: Double)

/** FP-Growth in two forms.
  *
  * [[mineLocal]] is the single-tree FP-Growth of Han, Pei & Yin (SIGMOD
  * 2000) over an in-memory collection; `core.PatternMiner` runs it once per
  * cuisine inside one Spark pass, so it is the production path.
  *
  * [[mine]] is a from-scratch Parallel FP-Growth (Li et al., RecSys 2008;
  * the same scheme Spark MLlib implements), written against the Dataset API
  * for one database too large for a task:
  *
  *  1. count item frequencies; keep items with count >= minCount, ranked by
  *     descending frequency (rank 0 = most frequent);
  *  2. rewrite each transaction as its frequent items sorted by rank, and
  *     emit one *conditional transaction* per item group (gid = rank %
  *     numGroups): the prefix up to the last item of that group;
  *  3. per group, build a local [[FPTree]] over the conditional transactions
  *     and extract itemsets whose suffix belongs to the group — each
  *     frequent itemset is produced by exactly one group.
  *
  * It is the §II baseline against [[Apriori]] and the independent oracle the
  * test suite checks the per-cuisine path against. Both forms are validated
  * in tests against MLlib's `ml.fpm.FPGrowth`, [[Apriori]] and
  * [[BruteForce]].
  */
object FPGrowth {

  /** minCount such that freq/total >= minSupport  <=>  freq >= minCount. */
  def minCountFor(minSupport: Double, total: Long): Long =
    math.ceil(minSupport * total).toLong

  /** Mine frequent itemsets from string transactions with Parallel
    * FP-Growth.
    *
    * @param transactions one item sequence per row (duplicates within a
    *                     transaction are ignored)
    * @param minSupport   relative support threshold in (0, 1]
    * @param numGroups    PFP group count (parallelism of the mining stage)
    */
  def mine(
      transactions: Dataset[Seq[String]],
      minSupport: Double,
      numGroups: Int = 32,
  ): Dataset[FreqItemset] = {
    require(minSupport > 0 && minSupport <= 1, s"minSupport $minSupport outside (0,1]")
    require(numGroups > 0, s"numGroups must be positive")
    val spark = transactions.sparkSession
    import spark.implicits._

    val total = transactions.count()
    require(total > 0, "cannot mine an empty transaction set")
    val minCount = minCountFor(minSupport, total)

    // Pass 1: frequent items ranked by descending count (ties broken by name
    // so the ranking — and thus grouping — is deterministic).
    val freqItems: Array[(String, Long)] = transactions
      .flatMap(_.distinct)
      .groupByKey(identity)
      .count()
      .filter(_._2 >= minCount)
      .collect()
      .sortBy { case (item, cnt) => (-cnt, item) }

    val ranks: Map[String, Int] = freqItems.iterator.map(_._1).zipWithIndex.toMap
    val bRanks = spark.sparkContext.broadcast(ranks)
    val itemOfRank: Array[String] = freqItems.map(_._1)
    val bItems = spark.sparkContext.broadcast(itemOfRank)
    val nG = numGroups

    // Pass 2: group-dependent conditional transactions.
    val cond: Dataset[(Int, Array[Int])] = transactions.flatMap { t =>
      val r = bRanks.value
      val filtered: Array[Int] = t.distinct.iterator.flatMap(r.get).toArray.sorted
      val out = mutable.Map.empty[Int, Array[Int]]
      var i = filtered.length - 1
      while (i >= 0) {
        val gid = filtered(i) % nG
        if (!out.contains(gid)) out(gid) = java.util.Arrays.copyOfRange(filtered, 0, i + 1)
        i -= 1
      }
      out.toSeq
    }

    // Pass 3: per-group local FP-Growth over rank-encoded items.
    cond
      .groupByKey(_._1)
      .flatMapGroups { (gid: Int, it: Iterator[(Int, Array[Int])]) =>
        val tree = new FPTree[Int]
        it.foreach { case (_, arr) => tree.add(arr.toSeq) }
        tree.extract(minCount, rank => rank % nG == gid).map { case (rankedItems, cnt) =>
          val names = bItems.value
          FreqItemset(rankedItems.map(names).sorted, cnt, cnt.toDouble / total)
        }
      }
  }

  /** Single-tree FP-Growth over an in-memory collection, in whichever JVM
    * calls it: the per-cuisine miner of `core.PatternMiner`, where one
    * cuisine easily fits in a task.
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
