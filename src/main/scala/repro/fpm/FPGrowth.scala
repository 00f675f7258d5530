package repro.fpm

/** One mined frequent itemset with absolute and relative frequency. */
final case class FreqItemset(items: Seq[String], freq: Long, support: Double)

/** FP-Growth's pattern growth (Han, Pei & Yin, SIGMOD 2000), the miner the
  * paper ran on each cuisine, counted on vertical transaction bitsets
  * (Zaki, TKDE 2000; Burdick et al., MAFIA, ICDE 2001): each frequent item
  * has one bitset of the transactions that hold it, and the support of a
  * pattern extension is one AND and popcount over ⌈N/64⌉ words instead of
  * a rescan of the conditional pattern base. A cuisine at support 0.2 has
  * ~15–25 frequent items, so the bitsets of one recursion path are small.
  * Items are interned to Int ids once; names come back only for the output.
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

    // Rank the frequent ids by (-count, name); `items(r)` names rank r, and
    // bit t of `tids(r)` is set when transaction t holds it.
    val byRank = names.indices.filter(idCount(_) >= minCount)
      .sortBy(id => (-idCount(id), names(id))).toArray
    val items = byRank.map(names)
    val rank = Array.fill(names.size)(-1)
    byRank.indices.foreach(r => rank(byRank(r)) = r)
    val words = (ids.length + 63) >>> 6
    val tids = Array.fill(byRank.length)(new Array[Long](words))
    for (t <- ids.indices; id <- ids(t) if rank(id) >= 0) tids(rank(id))(t >>> 6) |= 1L << t

    val out = Seq.newBuilder[FreqItemset]
    // `base` holds the transactions that contain all of `suffix`, and
    // `ranks(0 until n)`, ascending, the ranks below `suffix.head` that are
    // frequent with `suffix.tail` (every rank for the empty suffix); no
    // other rank can extend `suffix`. Ranks are visited in ascending order.
    def grow(base: Array[Long], ranks: Array[Int], n: Int, suffix: List[Int]): Unit = {
      val frequent = new Array[Int](n)
      var nFrequent = 0
      val next = new Array[Long](words) // rewritten per rank; a child only reads it
      var i = 0
      while (i < n) {
        val r = ranks(i)
        val tid = tids(r)
        var count = 0
        var w = 0
        while (w < words) {
          next(w) = base(w) & tid(w)
          count += java.lang.Long.bitCount(next(w))
          w += 1
        }
        if (count >= minCount) {
          val pattern = r :: suffix
          out += FreqItemset(pattern.map(items).sorted, count, count.toDouble / total)
          grow(next, frequent, nFrequent, pattern)
          frequent(nFrequent) = r
          nFrequent += 1
        }
        i += 1
      }
    }
    grow(Array.fill(words)(-1L), byRank.indices.toArray, byRank.length, Nil) // no tid bit is set past N
    out.result()
  }
}
