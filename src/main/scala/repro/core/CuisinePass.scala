package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, Encoders, Row}
import scala.reflect.runtime.universe.TypeTag

/** The one Spark pass behind both of the paper's cuisine representations:
  * FP-Growth per cuisine (§IV–V.A) and prevalence per cuisine (§V.B) each
  * need all the recipes of one cuisine, and nothing across cuisines.
  *
  * The pass groups the recipes with `groupBy("cuisine")`, on the column
  * itself, and hands each cuisine's rows to a function once. Recipes that
  * are already hash partitioned on `cuisine`, as [[repro.recipedb.RecipeGen]]
  * lays them out, need no shuffle: over a cached RecipeGen DataFrame the
  * physical plan is `InMemoryTableScan → Sort → MapGroups`, one Spark job.
  * On any other layout Spark inserts the exchange itself, so the results do
  * not depend on the layout. (`groupByKey` with a lambda would group on an
  * appended key column instead, which no input partitioning matches.)
  */
private[core] object CuisinePass {

  /** Applies `perCuisine` to every cuisine of `recipes`, with that cuisine's
    * arrays of each of `columns`, in the order of `columns` and each in the
    * order of the cuisine's rows. Fails, naming the column and the cuisine,
    * if a recipe's array is null. Lazy: [[results]] runs the pass.
    */
  def apply[R: TypeTag](recipes: DataFrame, columns: String*)(
      perCuisine: (String, IndexedSeq[Vector[Seq[String]]]) => R): Dataset[(String, R)] = {
    val selected = recipes.select("cuisine", columns: _*)
    selected.groupBy("cuisine")
      .as[String, Row](Encoders.STRING, Encoders.row(selected.schema))
      .mapGroups { (cuisine, rows) =>
        val arrays = IndexedSeq.fill(columns.size)(Vector.newBuilder[Seq[String]])
        rows.foreach { row =>
          arrays.indices.foreach { j =>
            val a = row.getSeq[String](j + 1)
            require(a != null, s"null ${columns(j)} array in a recipe of cuisine $cuisine")
            arrays(j) += a
          }
        }
        cuisine -> perCuisine(cuisine, arrays.map(_.result()))
      }(Encoders.product[(String, R)])
  }

  /** Runs a pass: its per-cuisine results, sorted by cuisine. */
  def results[R](pass: Dataset[(String, R)]): Seq[R] =
    pass.collect().sortBy(_._1).toSeq.map(_._2)
}
