package repro.recipedb

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

/** One generated recipe: the unit of analysis throughout the paper. */
final case class Recipe(
    id: Long,
    cuisine: String,
    ingredients: Seq[String],
    items: Seq[String], // ingredients ++ the recipe's processes and utensils
)

/** Synthetic RecipeDB generator.
  *
  * Deterministic in (sf, seed): item inclusion is decided by hashing
  * (seed, recipeId, item), never by partition-local RNG state, so the same
  * DataFrame contents are produced regardless of partitioning, and the
  * DuckDB oracle sees identical rows.
  *
  * Per recipe:
  *  - every item of its cuisine's spec is included independently with the
  *    spec probability (this is what makes named-pattern supports exactly
  *    the product of member probabilities — see DESIGN.md §2);
  *  - `RarePerRecipe` long-tail ingredients are drawn from a per-cuisine
  *    pool whose size scales with sf, giving ~20k unique ingredients at
  *    SF=1 as in RecipeDB (20,280) without affecting any support >= 0.2.
  */
object RecipeGen {

  val RarePerRecipe = 4

  /** Rare-ingredient pool size per cuisine at a given scale factor. */
  def rarePoolSize(sf: Double): Int = math.max(50, (780 * sf).toInt)

  /** Cuisine of a global recipe id, by cumulative ranges in Table I order. */
  def cuisineRanges(sf: Double): Seq[(CuisineSpec, Long, Long)] = {
    var off = 0L
    CuisineSpecs.all.map { s =>
      val start = off
      off += s.nAt(sf)
      (s, start, off)
    }
  }

  def totalRecipes(sf: Double): Long = cuisineRanges(sf).last._3

  /** Generate one recipe (driver-side callable too; used by tests). */
  def genRecipe(spec: CuisineSpec, id: Long, seed: Long, poolSize: Int): Recipe = {
    val ing = Seq.newBuilder[String]
    val other = Seq.newBuilder[String] // processes and utensils
    // deterministic iteration order: sorted item names
    spec.probs.toSeq.sortBy(_._1).foreach { case (item, p) =>
      if (Rng.uniform(seed, id, item.hashCode.toLong) < p)
        (if (Items.isIngredient(item)) ing else other) += item
    }
    val cuisineIdx = CuisineSpecs.all.indexWhere(_.name == spec.name)
    var slot = 0
    while (slot < RarePerRecipe) {
      val k = Rng.uniformInt(seed + 7, id, slot.toLong, poolSize)
      ing += s"rare_${cuisineIdx}_$k"
      slot += 1
    }
    val ingredients = ing.result().distinct // rare draws may collide
    Recipe(id, spec.name, ingredients, ingredients ++ other.result())
  }

  /** The full synthetic RecipeDB at a scale factor, as a DataFrame with
    * columns (id, cuisine, ingredients, items): `ingredients` feeds the
    * authenticity fingerprints and `items` the pattern mining.
    *
    * Layout: the rows are hash partitioned on `cuisine` into
    * `defaultParallelism` partitions, so each cuisine's recipes sit in one
    * partition and the 26 cuisines are spread over every core. A caller that
    * caches the DataFrame caches this layout, and the per-cuisine pass of
    * `repro.core` then reads it with no shuffle; cache it and fill the cache
    * before the first reproduction, as the pass plans a DataFrame once. The
    * partition count is explicit, so adaptive query execution keeps it. Row
    * contents do not depend on the partitioning (see above). Fails unless
    * `sf` is positive and finite.
    */
  def recipes(spark: SparkSession, sf: Double, seed: Long = 42): DataFrame = {
    require(sf > 0 && sf < Double.PositiveInfinity, s"scale factor $sf is not positive and finite")
    import spark.implicits._
    val ranges = cuisineRanges(sf)
    val pool = rarePoolSize(sf)
    val total = ranges.last._3
    // ranges is small (26 entries); ship it via closure.
    spark.range(total).as[Long].mapPartitions { ids =>
      ids.map { id =>
        val (spec, _, _) = ranges.find { case (_, s, e) => id >= s && id < e }.get
        genRecipe(spec, id, seed, pool)
      }
    }.toDF().repartition(spark.sparkContext.defaultParallelism, col("cuisine"))
  }
}
