package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.physical.ClusteredDistribution
import org.apache.spark.sql.functions.col
import scala.collection.mutable

/** The one Spark pass behind both of the paper's cuisine representations:
  * FP-Growth per cuisine (§IV–V.A) and prevalence per cuisine (§V.B) each
  * need all the recipes of one cuisine, and nothing across cuisines.
  *
  * The pass reads the recipes' own `rdd`, groups the rows of each partition
  * by cuisine and hands each cuisine's rows to a function once; the results
  * come back Java-serialized. Spark plans a DataFrame's `rdd` once, on first
  * use, so later passes over the same DataFrame object plan, generate code
  * and encode nothing. A DataFrame should therefore be cached, and the cache
  * filled (say by `count()`), before its first pass: one that is passed over
  * before it is cached keeps its uncached lineage (same results, slower).
  *
  * Grouping inside partitions is complete only if each cuisine's rows sit in
  * one partition. Recipes whose planned layout is clustered on `cuisine`, as
  * [[repro.recipedb.RecipeGen]] and a filled cache of it lay them out, are
  * read as they are: one Spark job, no shuffle. Any other layout is first
  * repartitioned on `cuisine`, one shuffle, so the results do not depend on
  * the layout. The layout is read from the physical plan before adaptive
  * execution wraps it, which hides the partitioning. A cache that is not yet
  * filled reports no layout either, so the first pass over it repartitions.
  */
private[core] object CuisinePass {

  /** Applies `perCuisine` to every cuisine of `recipes`, with that cuisine's
    * arrays of each of `columns`, in the order of `columns` and each in the
    * order of the cuisine's rows, and returns the results sorted by cuisine.
    * Fails, naming the column, if a recipe's `cuisine` is null, or if its
    * array is null (naming the cuisine too).
    */
  def apply[R](recipes: DataFrame, columns: String*)(
      perCuisine: (String, IndexedSeq[Vector[Seq[String]]]) => R): Seq[R] = {
    val plan = recipes.queryExecution.sparkPlan
    val clustered = plan.output.find(_.name == "cuisine")
      .exists(c => plan.outputPartitioning.satisfies(ClusteredDistribution(Seq(c))))
    val input = if (clustered) recipes else recipes.repartition(col("cuisine"))
    val cuisineAt = input.schema.fieldIndex("cuisine")
    val arrayAt = columns.map(input.schema.fieldIndex).toIndexedSeq
    input.rdd.mapPartitions { rows =>
      val byCuisine = mutable.HashMap.empty[String, IndexedSeq[mutable.Builder[Seq[String], Vector[Seq[String]]]]]
      rows.foreach { row =>
        val cuisine = row.getString(cuisineAt)
        require(cuisine != null, "null cuisine column in a recipe")
        val arrays = byCuisine.getOrElseUpdate(cuisine, arrayAt.map(_ => Vector.newBuilder[Seq[String]]))
        arrayAt.indices.foreach { j =>
          val a = row.getSeq[String](arrayAt(j))
          require(a != null, s"null ${columns(j)} array in a recipe of cuisine $cuisine")
          arrays(j) += a
        }
      }
      byCuisine.iterator.map { case (cuisine, arrays) => cuisine -> perCuisine(cuisine, arrays.map(_.result())) }
    }.collect().sortBy(_._1).toSeq.map(_._2)
  }
}
