package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** §V.B of the paper: authenticity-based cuisine fingerprints, after Ahn et
  * al.'s flavor-network metric.
  *
  *   prevalence          P_i^c = n_i^c / N_c
  *   relative prevalence p_i^c = P_i^c − ⟨P_i^k⟩_{k≠c}
  *
  * where n_i^c counts the recipes of cuisine c containing item i and N_c is
  * the number of recipes of cuisine c (Ahn et al.'s definition; the paper's
  * prose ambiguously says "total number of recipes in the dataset" — see
  * DESIGN.md errata). The mean over k ≠ c includes cuisines where the item
  * never occurs (P = 0), so the matrix is dense over cuisines × items.
  *
  * Spark computes only the two counts, N_c and n_i^c, each as one
  * aggregation collected to the driver; `n_i^c` is oracle-checked against
  * DuckDB in the test suite. The dense cuisines × items matrix (26 × ~20k
  * doubles, about 4 MB, at SF=1) is filled in on the driver.
  */
object Authenticity {

  /** (cuisine, item, n_with_item): the number of recipes of each cuisine
    * that contain each item at least once. Pairs with no such recipe are
    * absent.
    */
  def itemCounts(recipes: DataFrame, itemsCol: String = "ingredients"): DataFrame =
    recipes
      .select(col("id"), col("cuisine"), explode(col(itemsCol)).as("item"))
      .distinct() // recipe-level presence, robust to duplicate items
      .groupBy("cuisine", "item")
      .agg(count(lit(1)).as("n_with_item"))

  final case class Fingerprints(
      cuisines: IndexedSeq[String],
      items: IndexedSeq[String],
      matrix: Array[Array[Double]], // rel_prevalence, rows = cuisines
  )

  /** Dense relative-prevalence fingerprint matrix, rows sorted by cuisine
    * and columns by item so the result is deterministic. Needs at least two
    * cuisines.
    */
  def fingerprints(spark: SparkSession, recipes: DataFrame,
                   itemsCol: String = "ingredients"): Fingerprints = {
    import spark.implicits._
    val totals = recipes.groupBy("cuisine").count().as[(String, Long)].collect().sortBy(_._1)
    val k = totals.length
    require(k >= 2, "relative prevalence needs at least two cuisines")
    val counts = itemCounts(recipes, itemsCol).as[(String, String, Long)].collect()

    val cuisines = totals.map(_._1).toIndexedSeq
    val items = counts.map(_._2).distinct.sorted.toIndexedSeq
    val ci = cuisines.zipWithIndex.toMap
    val ii = items.zipWithIndex.toMap
    val m = Array.fill(k)(new Array[Double](items.size)) // P, zero-filled
    counts.foreach { case (c, i, n) =>
      val row = ci(c)
      m(row)(ii(i)) = n.toDouble / totals(row)._2
    }
    val sums = new Array[Double](items.size)
    m.foreach(row => row.indices.foreach(j => sums(j) += row(j)))
    m.foreach(row => row.indices.foreach(j => row(j) -= (sums(j) - row(j)) / (k - 1)))
    Fingerprints(cuisines, items, m)
  }
}
