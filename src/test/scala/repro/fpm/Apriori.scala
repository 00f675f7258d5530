package repro.fpm

import org.apache.spark.sql.Dataset
import scala.collection.mutable

/** Distributed level-wise Apriori (Agrawal & Srikant, VLDB 1994) — the
  * classic association-rule miner the paper cites as [1]; serves as the
  * baseline against FP-Growth in `MiningPerfBench` and as an independent
  * implementation for cross-checking results.
  *
  * L1 is counted in Spark; candidate generation and pruning run on the
  * driver (candidate sets stay small at the paper's support of 0.2);
  * candidate counting per level is a broadcast + flatMap + reduce.
  */
object Apriori {

  def mine(transactions: Dataset[Seq[String]], minSupport: Double): Seq[FreqItemset] = {
    require(minSupport > 0 && minSupport <= 1, s"minSupport $minSupport outside (0,1]")
    val spark = transactions.sparkSession
    import spark.implicits._

    val total = transactions.count()
    require(total > 0, "cannot mine an empty transaction set")
    val minCount = FPGrowth.minCountFor(minSupport, total)

    val out = mutable.ArrayBuffer.empty[FreqItemset]

    // L1
    val l1: Array[(String, Long)] = transactions
      .flatMap(_.distinct)
      .groupByKey(identity)
      .count()
      .filter(_._2 >= minCount)
      .collect()
      .sortBy(_._1)
    out ++= l1.map { case (i, c) => FreqItemset(Seq(i), c, c.toDouble / total) }

    var current: Array[Vector[String]] = l1.map(p => Vector(p._1))

    while (current.nonEmpty) {
      val candidates = generateCandidates(current)
      if (candidates.isEmpty) {
        current = Array.empty
      } else {
        val bCands = spark.sparkContext.broadcast(candidates)
        val counted: Array[(Vector[String], Long)] = transactions
          .flatMap { t =>
            val s = t.toSet
            bCands.value.iterator.filter(_.forall(s.contains)).map(c => (c.mkString("\u0000"), 1L))
          }
          .groupByKey(_._1)
          .mapValues(_._2)
          .reduceGroups(_ + _)
          .collect()
          .map { case (k, c) => (k.split('\u0000').toVector, c) }
        bCands.destroy()
        val frequent = counted.filter(_._2 >= minCount).sortBy(_._1.mkString(","))
        out ++= frequent.map { case (is, c) => FreqItemset(is, c, c.toDouble / total) }
        current = frequent.map(_._1)
      }
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
