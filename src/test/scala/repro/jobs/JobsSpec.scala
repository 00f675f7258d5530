package repro.jobs

import org.apache.spark.sql.functions.{col, when}
import repro.SparkSpec
import repro.core.{PatternMiner, Pipeline}
import repro.cluster.KMeans
import repro.fpm.FreqItemset
import repro.recipedb.{CuisineSpecs, RecipeGen}

/** The jobs' pure rendering/aggregation functions, driven at small scale —
  * the same code paths `spark-submit` users hit, minus `main`'s session
  * bootstrap.
  */
class JobsSpec extends SparkSpec {

  // One pipeline run at small scale, shared by the tests below.
  private lazy val res = Pipeline.run(spark, RecipeGen.recipes(spark, 0.01))
  private lazy val mined = res.patterns

  test("TableIJob.rows produces one row per named pattern in Table I order") {
    val rows = TableIJob.rows(mined)
    val expected = CuisineSpecs.all.flatMap(s => s.namedPatterns.map(_ => s.name))
    assert(rows.map(_.cuisine) == expected)
    assert(rows.size == 33) // 33 named patterns across 26 cuisines
  }

  test("TableIJob.rows carries paper numbers verbatim") {
    val rows = TableIJob.rows(mined)
    val korean = rows.filter(_.cuisine == "Korean")
    assert(korean.map(_.paperSupport).sorted == Seq(0.24, 0.34))
    assert(korean.forall(_.paperPatternCount == 85))
  }

  test("TableIJob.rows looks a named pattern's support up by item set, in any order") {
    val korean = PatternMiner.CuisinePatterns("Korean", 10,
      Seq(FreqItemset(Seq("sesame oil", "soy sauce"), 4, 0.4)))
    val support = TableIJob.rows(Seq(korean)).map(r => r.namedPattern -> r.measuredSupport)
    assert(support == Seq("sesame oil + soy sauce" -> Some(0.4), "green onion + sesame oil" -> None))
  }

  test("TableIJob.render emits a header plus one line per row") {
    val rows = TableIJob.rows(mined)
    val out = TableIJob.render(rows)
    assert(out.linesIterator.size == rows.size + 1)
    assert(out.linesIterator.next().contains("Region"))
  }

  test("TableIJob.render marks unmined patterns as MISS, not by crashing") {
    val rows = Seq(TableIJob.Row("X", 10, "a + b", 0.5, None, 7, 3, "t"))
    assert(TableIJob.render(rows).contains("MISS"))
  }

  test("ReproJob.renderElbow formats the sweep") {
    val sweep = KMeans.elbow(res.features.matrix, 1 to 3)
    val out = ReproJob.renderElbow(sweep)
    assert(out.linesIterator.size == 4)
    assert(out.contains("WCSS"))
  }

  test("ReproJob.render prints Table I, WCSS, all five trees and Fowlkes–Mallows") {
    val out = ReproJob.render(res)
    assert(out.contains("== Table I =="))
    assert(out.contains(TableIJob.render(TableIJob.rows(res.patterns))))
    assert(out.contains(ReproJob.renderElbow(KMeans.elbow(res.features.matrix, 1 to 10))))
    Seq("patterns/euclidean", "patterns/cosine", "patterns/jaccard",
      "authenticity", "geography").foreach { tree =>
      assert(out.contains(s"== HAC ($tree) =="), tree)
    }
    assert(out.contains("Mean Fowlkes–Mallows similarity vs geography tree (k=2..12)"))
    // 5 trees, each rendered as newick (one ';') per section
    assert(out.count(_ == ';') >= 5)
  }

  // Three cuisines with coordinates and 50 or more recipes each at SF 0.01:
  // a cuisine of a few recipes has a minimum count of 1 at support 0.2, so
  // every subset of its items would be mined.
  private lazy val three = {
    val recipes = RecipeGen.recipes(spark, 0.01)
    recipes.filter(recipes("cuisine").isin("Italian", "US", "Indian Subcontinent"))
  }

  test("ReproJob.renderTrees heads the Fowlkes–Mallows table with the cuts the comparison used") {
    val res = Pipeline.run(spark, three)
    assert(ReproJob.renderTrees(res).contains("== Mean Fowlkes–Mallows similarity vs geography tree (k=2..2) =="))
  }

  test("ReproJob.renderTrees omits the Fowlkes–Mallows section without a geography tree") {
    val renamed = three.withColumn("cuisine",
      when(col("cuisine") === "US", "Atlantis").otherwise(col("cuisine")))
    val res = Pipeline.run(spark, renamed)
    assert(res.geoSimilarity.isEmpty)
    val out = ReproJob.renderTrees(res)
    assert(out.contains("== HAC (authenticity) =="))
    assert(!out.contains("Fowlkes"))
  }
}
