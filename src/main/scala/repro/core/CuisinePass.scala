package repro.core

import org.apache.spark.TaskContext
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.plans.physical.ClusteredDistribution
import org.apache.spark.sql.functions.col
import org.apache.spark.unsafe.types.UTF8String
import scala.collection.mutable

/** The one Spark pass behind both of the paper's cuisine representations:
  * FP-Growth per cuisine (§IV–V.A) and prevalence per cuisine (§V.B) each
  * need all the recipes of one cuisine, and nothing across cuisines.
  *
  * The pass reads the recipes' `InternalRow`s (`queryExecution.toRdd`) and
  * groups each partition's rows by cuisine. Each cuisine has one interner,
  * shared by all columns, that maps an item's UTF-8 bytes to a dense Int id
  * and decodes each distinct item to a `String` once, into `names`. Scans
  * reuse their row buffers, so cuisine keys and items are cloned as they go
  * into a map. Results come back Java-serialized. Spark plans `toRdd` once
  * per DataFrame object, so later passes over it plan, generate code and
  * encode nothing. A DataFrame should therefore be cached, and the cache
  * filled (say by `count()`), before its first pass: one that is passed over
  * before it is cached keeps its uncached lineage (same results, slower).
  *
  * The pass submits its job with `SparkContext.runJob` and a
  * `(TaskContext, Iterator)` function, not with `mapPartitions(…).collect()`.
  * Spark's `ClosureCleaner` reads and parses the bytecode of the class that
  * declares each function it cleans, on every job. `collect` cleans a function
  * declared in `RDD`, and `runJob` with an `Iterator` function wraps it in one
  * declared in `SparkContext`, so either parses a large class per pass. The
  * `(TaskContext, Iterator)` overload cleans only the pass's own function,
  * which is declared here, in a small class, for that reason.
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

  /** Applies `perCuisine`, inside the task, to every cuisine of `recipes`,
    * its item names by id and, for each of `columns`, its rows' arrays of item
    * ids in row order; returns the results sorted by cuisine. Fails, naming
    * the column (and the cuisine), if a `cuisine`, an array or an item is null.
    */
  def apply[R](recipes: DataFrame, columns: String*)(
      perCuisine: (String, Array[String], IndexedSeq[Array[Array[Int]]]) => R): Seq[R] = {
    val plan = recipes.queryExecution.sparkPlan
    val clustered = plan.output.find(_.name == "cuisine")
      .exists(c => plan.outputPartitioning.satisfies(ClusteredDistribution(Seq(c))))
    val input = if (clustered) recipes else recipes.repartition(col("cuisine"))
    val cuisineAt = input.schema.fieldIndex("cuisine")
    val arrayAt = columns.map(input.schema.fieldIndex).toIndexedSeq
    val rdd = input.queryExecution.toRdd
    rdd.sparkContext.runJob(rdd, (_: TaskContext, rows: Iterator[InternalRow]) => {
      final class Cuisine(val name: String) {
        val idOf = mutable.HashMap.empty[UTF8String, Int]
        val names = mutable.ArrayBuffer.empty[String]
        val arrays = arrayAt.map(_ => Array.newBuilder[Array[Int]])
        def intern(item: UTF8String): Int =
          idOf.getOrElse(item, { names += item.toString; idOf(item.clone()) = names.size - 1; names.size - 1 })
      }
      val byCuisine = mutable.HashMap.empty[UTF8String, Cuisine]
      rows.foreach { row =>
        require(!row.isNullAt(cuisineAt), "null cuisine column in a recipe")
        val key = row.getUTF8String(cuisineAt)
        val c = byCuisine.getOrElse(key, { val c = new Cuisine(key.toString); byCuisine(key.clone()) = c; c })
        arrayAt.indices.foreach { j =>
          require(!row.isNullAt(arrayAt(j)), s"null ${columns(j)} array in a recipe of cuisine ${c.name}")
          val a = row.getArray(arrayAt(j))
          val ids = new Array[Int](a.numElements())
          var k = 0
          while (k < ids.length) {
            require(!a.isNullAt(k), s"null item in the ${columns(j)} array of a recipe of cuisine ${c.name}")
            ids(k) = c.intern(a.getUTF8String(k))
            k += 1
          }
          c.arrays(j) += ids
        }
      }
      byCuisine.valuesIterator.map(c => c.name -> perCuisine(c.name, c.names.toArray, c.arrays.map(_.result()))).toArray
    }, rdd.partitions.indices).flatten.sortBy(_._1).toSeq.map(_._2)
  }
}
