package repro.bench

import repro.SparkSpec
import repro.core.Pipeline
import repro.recipedb.RecipeGen

/** The one reproduction the bench suites share: at SF=1, Table I's exact
  * recipe counts, run once per bench JVM, on first use.
  */
object BenchRun {

  val sf = 1.0

  lazy val results: Pipeline.Results =
    Pipeline.run(SparkSpec.shared, RecipeGen.recipes(SparkSpec.shared, sf))
}
