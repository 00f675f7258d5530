package repro.fpm

import org.apache.spark.ml.fpm.{FPGrowth => MLFPGrowth}
import org.apache.spark.sql.Dataset

/** Spark MLlib's Parallel FP-Growth (Li et al., RecSys 2008) as a reference
  * miner: a distributed implementation that shares no code with
  * [[FPGrowth.mineLocal]], returning its itemsets in the same form.
  */
object MLlibFPGrowth {

  /** Frequent itemsets of `transactions` at `minSupport`, items sorted.
    * Each transaction is made `distinct` first: MLlib rejects duplicate
    * items, which `FPGrowth.mineLocal` counts once.
    */
  def mine(transactions: Dataset[Seq[String]], minSupport: Double): Seq[FreqItemset] = {
    val spark = transactions.sparkSession
    import spark.implicits._
    val items = transactions.map(_.distinct).toDF("items")
    val total = items.count()
    new MLFPGrowth().setItemsCol("items").setMinSupport(minSupport)
      .fit(items)
      .freqItemsets.as[(Seq[String], Long)]
      .collect()
      .map { case (is, freq) => FreqItemset(is.sorted, freq, freq.toDouble / total) }
      .toSeq
  }
}
