package repro.fpm

import scala.collection.mutable

/** Level-wise Apriori (Agrawal & Srikant, VLDB 1994) — the classic
  * association-rule miner the paper cites as [1]; serves as the baseline
  * against FP-Growth in `MiningPerfBench` and as an independent
  * implementation for cross-checking results.
  *
  * Plain Scala on one machine, as the paper's miners ran: L1 is counted in
  * one pass over each transaction's distinct items, and each level's
  * candidates, from `generateCandidates`, are counted against the
  * transactions as sets.
  */
object Apriori {

  def mine(transactions: Seq[Seq[String]], minSupport: Double): Seq[FreqItemset] = {
    require(minSupport > 0 && minSupport <= 1, s"minSupport $minSupport outside (0,1]")
    val total = transactions.size.toLong
    require(total > 0, "cannot mine an empty transaction set")
    val minCount = FPGrowth.minCountFor(minSupport, total)

    val l1 = transactions.flatMap(_.distinct).groupMapReduce(identity)(_ => 1L)(_ + _)
    val sets = transactions.map(_.toSet)
    val out = mutable.ArrayBuffer.empty[FreqItemset]
    var current = l1.toArray.map { case (i, c) => (Vector(i), c) }
    while (current.nonEmpty) {
      val frequent = current.filter(_._2 >= minCount).sortBy(_._1.mkString(","))
      out ++= frequent.map { case (is, c) => FreqItemset(is, c, c.toDouble / total) }
      current = generateCandidates(frequent.map(_._1)).map(c => (c, sets.count(s => c.forall(s)).toLong))
    }
    out.toSeq
  }

  /** Classic (k-1)-prefix join + subset pruning. Itemsets are kept as
    * lexicographically sorted vectors.
    */
  private[fpm] def generateCandidates(lk: Array[Vector[String]]): Array[Vector[String]] = {
    if (lk.isEmpty) return Array.empty
    val lkSet = lk.toSet
    val byPrefix = lk.groupBy(_.dropRight(1))
    val cands = mutable.ArrayBuffer.empty[Vector[String]]
    byPrefix.valuesIterator.foreach { group =>
      val sorted = group.sortBy(_.last)
      var i = 0
      while (i < sorted.length) {
        var j = i + 1
        while (j < sorted.length) {
          val cand = sorted(i) :+ sorted(j).last
          // prune: every k-subset of the (k+1)-candidate must be frequent
          val allSubsFrequent =
            cand.indices.forall(d => lkSet.contains(cand.patch(d, Nil, 1)))
          if (allSubsFrequent) cands += cand
          j += 1
        }
        i += 1
      }
    }
    cands.toArray
  }
}
