package repro.core

import org.apache.spark.sql.DataFrame
import repro.fpm.{FPGrowth, FreqItemset, Itemsets}
import scala.collection.mutable

/** §IV–V.A of the paper: per-cuisine frequent pattern mining.
  *
  * Each recipe is the unordered set ingredients ++ processes ++ utensils
  * (the `items` column of the generator); FP-Growth runs once per cuisine
  * at the paper's support threshold of 0.2.
  *
  * All cuisines are mined in one Spark pass: the recipes are hash
  * partitioned by cuisine into as many partitions as Spark has cores, each
  * task groups its rows by cuisine and mines each group with FP-Growth's
  * conditional-pattern-base recursion, [[FPGrowth.mineLocal]], as the paper
  * mined each cuisine on one machine (Han, Pei & Yin, SIGMOD 2000). The
  * explicit partition count keeps adaptive query execution from coalescing
  * the 26 groups into fewer tasks than cores. The largest cuisine,
  * Italian, has 16.6k recipes at SF=1, so one group easily fits in a task.
  * The test suite checks every cuisine against Spark MLlib's FP-Growth.
  */
object PatternMiner {

  val PaperMinSupport = 0.2

  final case class CuisinePatterns(
      cuisine: String,
      nRecipes: Long,
      itemsets: Seq[FreqItemset],
  ) {
    lazy val bySet: Map[Set[String], Double] = Itemsets.toMap(itemsets)
    def supportOf(items: Set[String]): Option[Double] = bySet.get(items)
    def nPatterns: Int = itemsets.size
  }

  /** Mine every cuisine present in `recipes`, one result per cuisine sorted
    * by cuisine name. Fails if a recipe's `itemsCol` array is null.
    *
    * @param itemsCol which item view to mine ("items" = full paper setting)
    */
  def minePerCuisine(
      recipes: DataFrame,
      minSupport: Double = PaperMinSupport,
      itemsCol: String = "items",
  ): Seq[CuisinePatterns] = {
    require(minSupport > 0 && minSupport <= 1, s"minSupport $minSupport outside (0,1]")
    val spark = recipes.sparkSession
    import spark.implicits._
    val cuisineCol = recipes("cuisine")
    recipes.select(cuisineCol, recipes(itemsCol))
      .repartition(spark.sparkContext.defaultParallelism, cuisineCol)
      .as[(String, Seq[String])]
      .mapPartitions { rows =>
        val byCuisine = mutable.HashMap.empty[String, mutable.Builder[Seq[String], Vector[Seq[String]]]]
        rows.foreach { case (cuisine, items) =>
          require(items != null, s"null $itemsCol array in a recipe of cuisine $cuisine")
          byCuisine.getOrElseUpdate(cuisine, Vector.newBuilder) += items
        }
        byCuisine.iterator.map { case (cuisine, builder) =>
          val tx = builder.result()
          CuisinePatterns(cuisine, tx.size.toLong, FPGrowth.mineLocal(tx, minSupport))
        }
      }
      .collect()
      .sortBy(_.cuisine)
      .toSeq
  }
}
