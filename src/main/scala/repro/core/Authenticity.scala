package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable

/** §V.B of the paper: authenticity-based cuisine fingerprints, after Ahn et
  * al.'s flavor-network metric.
  *
  *   prevalence          P_i^c = n_i^c / N_c
  *   relative prevalence p_i^c = P_i^c − ⟨P_i^k⟩_{k≠c}
  *
  * where n_i^c counts the recipes of cuisine c whose `ingredients` contain
  * item i (processes and utensils do not count) and N_c is the number of
  * recipes of cuisine c (Ahn et al.'s definition; the paper's prose
  * ambiguously says "total number of recipes in the dataset" — see
  * DESIGN.md errata). The mean over k ≠ c includes cuisines where the item
  * never occurs (P = 0), so the matrix is dense over cuisines × items.
  *
  * Spark computes only the two counts, N_c and n_i^c, in one
  * [[CuisinePass]]: the task whose partition holds a cuisine's recipes counts
  * them and, per recipe, its distinct ingredients, and returns one
  * Java-serialized [[CuisineCounts]] per cuisine. `Pipeline.run` counts in
  * the same pass as it mines. Both counts are oracle-checked against DuckDB
  * in the test suite. The dense cuisines × items matrix (26 × ~20k doubles,
  * about 4 MB, at SF=1) is filled in on the driver.
  */
object Authenticity {

  /** N_c and n_i^c of one cuisine: `withItem(i)` is the number of recipes
    * that contain item i at least once; items no recipe contains are absent.
    */
  final case class CuisineCounts(cuisine: String, nRecipes: Long, withItem: Map[String, Long])

  /** One [[CuisineCounts]] of the `ingredients` per cuisine present in
    * `recipes`, sorted by cuisine. Fails if a recipe's `ingredients` array
    * is null.
    */
  def itemCounts(recipes: DataFrame): Seq[CuisineCounts] =
    CuisinePass(recipes, "ingredients") { (cuisine, arrays) =>
      count(cuisine, arrays(0))
    }

  /** One cuisine's counts, from its recipes' ingredient arrays. A recipe
    * counts once however often it lists an item.
    */
  private[core] def count(cuisine: String, ingredients: Seq[Seq[String]]): CuisineCounts = {
    val withItem = mutable.HashMap.empty[String, Long]
    ingredients.foreach(_.distinct.foreach(i => withItem(i) = withItem.getOrElse(i, 0L) + 1))
    CuisineCounts(cuisine, ingredients.size.toLong, withItem.toMap)
  }

  final case class Fingerprints(
      cuisines: IndexedSeq[String],
      items: IndexedSeq[String],
      matrix: Array[Array[Double]], // rel_prevalence, rows = cuisines
  )

  /** Dense relative-prevalence fingerprint matrix of the `ingredients` of
    * `recipes`, rows sorted by cuisine and columns by item so the result is
    * deterministic. Needs at least two cuisines. `spark` is unused; the
    * benchmark harness still passes it.
    */
  def fingerprints(spark: SparkSession, recipes: DataFrame): Fingerprints =
    fromCounts(itemCounts(recipes))

  /** The fingerprint matrix of per-cuisine counts sorted by cuisine. */
  private[core] def fromCounts(counts: Seq[CuisineCounts]): Fingerprints = {
    val k = counts.length
    require(k >= 2, "relative prevalence needs at least two cuisines")

    val cuisines = counts.map(_.cuisine).toIndexedSeq
    val (items, m) = DenseRows(counts.map { c => // P, zero-filled
      c.withItem.view.map { case (i, n) => i -> n.toDouble / c.nRecipes }
    })
    val sums = new Array[Double](items.size)
    m.foreach(row => row.indices.foreach(j => sums(j) += row(j)))
    m.foreach(row => row.indices.foreach(j => row(j) -= (sums(j) - row(j)) / (k - 1)))
    Fingerprints(cuisines, items, m)
  }
}
