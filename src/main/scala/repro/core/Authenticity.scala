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
  * Spark computes only the two counts, N_c and n_i^c, in one job with no
  * shuffle: each input partition counts its own rows per cuisine and
  * returns one partial [[CuisineCounts]] per cuisine it holds, and the
  * driver adds the partials up. The partials grow with input partitions ×
  * cuisines (4 × 26 small maps at SF=1 on 4 cores), not with recipes. Both
  * counts are oracle-checked against DuckDB in the test suite. The dense
  * cuisines × items matrix (26 × ~20k doubles, about 4 MB, at SF=1) is
  * filled in on the driver.
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
  def itemCounts(recipes: DataFrame): Seq[CuisineCounts] = {
    val spark = recipes.sparkSession
    import spark.implicits._
    val partials = recipes.select(recipes("cuisine"), recipes("ingredients"))
      .as[(String, Seq[String])]
      .mapPartitions { rows =>
        val nRecipes = mutable.HashMap.empty[String, Long]
        val withItem = mutable.HashMap.empty[String, mutable.HashMap[String, Long]]
        rows.foreach { case (cuisine, items) =>
          require(items != null, s"null ingredients array in a recipe of cuisine $cuisine")
          nRecipes(cuisine) = nRecipes.getOrElse(cuisine, 0L) + 1
          val counts = withItem.getOrElseUpdate(cuisine, mutable.HashMap.empty)
          // recipe-level presence, robust to duplicate items
          items.distinct.foreach(i => counts(i) = counts.getOrElse(i, 0L) + 1)
        }
        nRecipes.iterator.map { case (c, n) => CuisineCounts(c, n, withItem(c).toMap) }
      }
      .collect()
    partials.groupBy(_.cuisine).toSeq.sortBy(_._1).map { case (cuisine, ps) =>
      CuisineCounts(cuisine, ps.map(_.nRecipes).sum,
        ps.flatMap(_.withItem).groupMapReduce(_._1)(_._2)(_ + _))
    }
  }

  final case class Fingerprints(
      cuisines: IndexedSeq[String],
      items: IndexedSeq[String],
      matrix: Array[Array[Double]], // rel_prevalence, rows = cuisines
  )

  /** Dense relative-prevalence fingerprint matrix, rows sorted by cuisine
    * and columns by item so the result is deterministic. Needs at least two
    * cuisines. `spark` is unused; the benchmark harness still passes it.
    */
  def fingerprints(spark: SparkSession, recipes: DataFrame): Fingerprints = {
    val counts = itemCounts(recipes)
    val k = counts.length
    require(k >= 2, "relative prevalence needs at least two cuisines")

    val cuisines = counts.map(_.cuisine).toIndexedSeq
    val items = counts.flatMap(_.withItem.keys).distinct.sorted.toIndexedSeq
    val ii = items.zipWithIndex.toMap
    val m = counts.map { c => // P, zero-filled
      val row = new Array[Double](items.size)
      c.withItem.foreach { case (i, n) => row(ii(i)) = n.toDouble / c.nRecipes }
      row
    }.toArray
    val sums = new Array[Double](items.size)
    m.foreach(row => row.indices.foreach(j => sums(j) += row(j)))
    m.foreach(row => row.indices.foreach(j => row(j) -= (sums(j) - row(j)) / (k - 1)))
    Fingerprints(cuisines, items, m)
  }
}
