package repro.fpm

import java.util.Arrays

/** One mined frequent itemset with absolute and relative frequency. */
final case class FreqItemset(items: Seq[String], freq: Long, support: Double)

/** FP-Growth (Han, Pei & Yin, SIGMOD 2000), the miner the paper ran on each
  * cuisine, as a recursion over conditional pattern bases kept as plain
  * rank arrays rather than compressed into an FP-tree: at support 0.2
  * recipes seldom share long prefixes, so the tree would save little
  * (Pei et al., H-Mine, ICDM 2001). As in Borgelt's implementation (OSDM
  * 2005), items are interned to Int ids once and everything after that
  * works on primitive arrays; item names come back only for the output.
  *
  * `core`'s cuisine pass interns as it reads and runs [[mineIds]] per
  * cuisine in one Spark pass; [[mineLocal]] interns strings, then calls it.
  * The test suite checks it against Spark MLlib's Parallel FP-Growth
  * (`ml.fpm.FPGrowth`, Li et al., RecSys 2008), Apriori and brute force.
  */
object FPGrowth {

  /** minCount such that freq/total >= minSupport  <=>  freq >= minCount. */
  def minCountFor(minSupport: Double, total: Long): Long =
    math.ceil(minSupport * total).toLong

  /** Mine frequent itemsets from an in-memory collection of transactions,
    * in whichever JVM calls it, by interning them for [[mineIds]].
    *
    * @param transactions one item sequence per transaction (duplicates
    *                     within a transaction are ignored)
    * @param minSupport   relative support threshold in (0, 1]
    */
  def mineLocal(transactions: Seq[Seq[String]], minSupport: Double): Seq[FreqItemset] = {
    val names = transactions.iterator.flatten.distinct.toArray
    val idOf = names.zipWithIndex.toMap
    mineIds(transactions.iterator.map(_.iterator.map(idOf).toArray).toArray, names, minSupport)
  }

  /** For each id below `nIds`, the number of transactions that hold it at least once. */
  def idCounts(ids: Array[Array[Int]], nIds: Int): Array[Int] = {
    val count = new Array[Int](nIds)
    val seen = Array.fill(nIds)(-1) // the last transaction that counted an id
    var t = 0
    while (t < ids.length) {
      val tx = ids(t)
      var j = 0
      while (j < tx.length) {
        if (seen(tx(j)) != t) { seen(tx(j)) = t; count(tx(j)) += 1 }
        j += 1
      }
      t += 1
    }
    count
  }

  /** Mine frequent itemsets from interned transactions, where `names(id)` is
    * the item `id` stands for; the result does not depend on the id order.
    */
  def mineIds(ids: Array[Array[Int]], names: Array[String], minSupport: Double): Seq[FreqItemset] = {
    require(minSupport > 0 && minSupport <= 1, s"minSupport $minSupport outside (0,1]")
    val total = ids.length.toLong
    require(total > 0, "cannot mine an empty transaction set")
    val minCount = minCountFor(minSupport, total)
    val idCount = idCounts(ids, names.size)

    // Rank the frequent ids by (-count, name); `items(r)` names rank r.
    val byRank = names.indices.filter(idCount(_) >= minCount)
      .sortBy(id => (-idCount(id), names(id))).toArray
    val items = byRank.map(names)
    val rank = Array.fill(names.size)(-1)
    byRank.indices.foreach(r => rank(byRank(r)) = r)

    // The sorted, distinct frequent ranks of one interned transaction.
    def encode(tx: Array[Int]): Array[Int] = {
      val rs = tx.map(rank).filter(_ >= 0)
      Arrays.sort(rs)
      var n = 0
      var j = 0
      while (j < rs.length) {
        if (n == 0 || rs(j) != rs(n - 1)) { rs(n) = rs(j); n += 1 }
        j += 1
      }
      if (n == rs.length) rs else Arrays.copyOf(rs, n)
    }

    val out = Seq.newBuilder[FreqItemset]
    // `base` is the conditional pattern base of `suffix`: for each
    // transaction holding all of `suffix`, its sorted ranks below
    // `suffix.head`, less those already infrequent alongside `suffix`.
    // `count(r)` is the number of transactions in `base` holding rank r.
    def grow(base: Array[Array[Int]], count: Array[Int], suffix: List[Int]): Unit = {
      var r = 0
      while (r < count.length) {
        if (count(r) >= minCount) {
          val pattern = r :: suffix
          out += FreqItemset(pattern.map(items).sorted, count(r), count(r).toDouble / total)
          val next = new Array[Array[Int]](count(r))
          val nextCount = new Array[Int](r)
          var n = 0
          var b = 0
          while (b < base.length) {
            val tx = base(b)
            val at = Arrays.binarySearch(tx, r)
            if (at >= 0) {
              var kept = 0
              var j = 0
              while (j < at) { if (count(tx(j)) >= minCount) kept += 1; j += 1 }
              val prefix = new Array[Int](kept)
              kept = 0
              j = 0
              while (j < at) {
                if (count(tx(j)) >= minCount) {
                  prefix(kept) = tx(j)
                  nextCount(tx(j)) += 1
                  kept += 1
                }
                j += 1
              }
              next(n) = prefix
              n += 1
            }
            b += 1
          }
          grow(next, nextCount, pattern)
        }
        r += 1
      }
    }
    grow(ids.map(encode), byRank.map(idCount), Nil)
    out.result()
  }
}
