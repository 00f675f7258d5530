package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.fpm.FPGrowth

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
  * them and, per recipe, its distinct ingredient ids, as the miner does, and
  * returns one Java-serialized [[CuisineCounts]] per cuisine. `Pipeline.run`
  * counts in the same pass as it mines. Both counts are oracle-checked
  * against DuckDB in the test suite. The dense cuisines × items matrix
  * (26 × ~20k doubles, about 4 MB, at SF=1) is filled in on the driver.
  */
object Authenticity {

  /** N_c and n_i^c of one cuisine: `withItem(j)` recipes contain `items(j)`
    * at least once; items no recipe contains are absent. Arrays, not a map of
    * boxed counts, so the pass ships fewer bytes.
    */
  private[core] final case class CuisineCounts(cuisine: String, nRecipes: Long, items: Array[String], withItem: Array[Int])

  /** One cuisine's counts, from its recipes' interned ingredient arrays. A
    * recipe counts once however often it lists an item. `names` may name
    * items no ingredient array holds (the pass interns all its columns with
    * one table); they are dropped here, in the task.
    */
  private[core] def count(cuisine: String, names: Array[String], ingredients: Array[Array[Int]]): CuisineCounts = {
    val withItem = FPGrowth.idCounts(ingredients, names.size)
    val present = names.indices.filter(withItem(_) > 0)
    CuisineCounts(cuisine, ingredients.length.toLong, present.map(names).toArray, present.map(withItem).toArray)
  }

  final case class Fingerprints(
      cuisines: IndexedSeq[String],
      items: IndexedSeq[String],
      matrix: Array[Array[Double]], // rel_prevalence, rows = cuisines
  )

  /** Dense relative-prevalence fingerprint matrix of the `ingredients` of
    * `recipes`, rows sorted by cuisine and columns by item so the result is
    * deterministic. Needs at least two cuisines, and fails on a null
    * `ingredients` array or item. `spark` is unused; the benchmark harness
    * still passes it.
    */
  def fingerprints(spark: SparkSession, recipes: DataFrame): Fingerprints =
    fromCounts(CuisinePass(recipes, "ingredients")((cuisine, names, arrays) => count(cuisine, names, arrays(0))))

  /** The fingerprint matrix of per-cuisine counts sorted by cuisine. */
  private[core] def fromCounts(counts: Seq[CuisineCounts]): Fingerprints = {
    val k = counts.length
    require(k >= 2, "relative prevalence needs at least two cuisines")

    val cuisines = counts.map(_.cuisine).toIndexedSeq
    val (items, m) = DenseRows(counts.map { c => // P, zero-filled
      c.items.indices.view.map(j => c.items(j) -> c.withItem(j).toDouble / c.nRecipes)
    })
    val sums = new Array[Double](items.size)
    m.foreach(row => row.indices.foreach(j => sums(j) += row(j)))
    m.foreach(row => row.indices.foreach(j => row(j) -= (sums(j) - row(j)) / (k - 1)))
    Fingerprints(cuisines, items, m)
  }
}
