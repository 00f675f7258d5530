package repro.core

import org.apache.spark.sql.DataFrame
import repro.fpm.{FPGrowth, FreqItemset}
import repro.recipedb.CuisineSpecs

/** §IV–V.A of the paper: per-cuisine frequent pattern mining.
  *
  * Each recipe is the unordered set of its ingredients, processes and
  * utensils (the `items` column of the generator); FP-Growth runs once per
  * cuisine at the paper's support threshold of 0.2.
  *
  * All cuisines are mined in one [[CuisinePass]]: each cuisine's recipes
  * reach one task, which groups its partition by cuisine, interns the items,
  * and mines the ids with [[FPGrowth.mineIds]], FP-Growth's pattern growth
  * (Han, Pei & Yin, SIGMOD 2000) counted on transaction bitsets, as the paper
  * mined each cuisine on one machine. RecipeGen spreads the 26 cuisines
  * over as many hash partitions as Spark has cores, so every core mines. The
  * largest cuisine, Italian, has 16.6k recipes at SF=1, so one group easily
  * fits in a task. `Pipeline.run` mines in the same pass as it counts the
  * fingerprints. The test suite checks every cuisine against Spark MLlib's
  * FP-Growth.
  */
object PatternMiner {

  val PaperMinSupport: Double = CuisineSpecs.MinSupport

  final case class CuisinePatterns(
      cuisine: String,
      nRecipes: Long,
      itemsets: Seq[FreqItemset],
  ) {
    def nPatterns: Int = itemsets.size
  }

  /** Mine the `items` of every cuisine present in `recipes`, one result per
    * cuisine sorted by cuisine name. Fails on a null `items` array or item.
    */
  def minePerCuisine(recipes: DataFrame, minSupport: Double = PaperMinSupport): Seq[CuisinePatterns] = {
    require(minSupport > 0 && minSupport <= 1, s"minSupport $minSupport outside (0,1]")
    CuisinePass(recipes, "items") { (cuisine, names, arrays) =>
      mine(cuisine, names, arrays(0), minSupport)
    }
  }

  /** One cuisine's patterns, from its recipes' interned item arrays. */
  private[core] def mine(cuisine: String, names: Array[String], ids: Array[Array[Int]],
                         minSupport: Double): CuisinePatterns =
    CuisinePatterns(cuisine, ids.length.toLong, FPGrowth.mineIds(ids, names, minSupport))
}
