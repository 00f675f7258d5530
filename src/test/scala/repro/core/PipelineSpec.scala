package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import repro.SparkSpec
import repro.fpm.Itemsets
import repro.recipedb.RecipeGen

class PipelineSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  // One full pipeline run at small scale, shared by the assertions below.
  private lazy val res = Pipeline.runAtScale(spark, 0.02)

  private lazy val cached = RecipeGen.recipes(spark, 0.02).cache()

  test("pipeline yields all 26 cuisines in sorted order") {
    assert(res.cuisines.size == 26)
    assert(res.cuisines == res.cuisines.sorted)
  }

  test("a pattern tree exists per metric and has 26 leaves") {
    assert(res.patternTrees.keySet == Pipeline.Metrics.toSet)
    res.patternTrees.values.foreach(t => assert(t.nLeaves == 26))
    assert(res.authTree.nLeaves == 26)
    assert(res.geoTree.nLeaves == 26)
  }

  test("feature matrix is binary with one row per cuisine") {
    assert(res.features.matrix.length == 26)
    res.features.matrix.foreach(row => assert(row.forall(v => v == 0.0 || v == 1.0)))
    assert(res.features.patternUniverse.nonEmpty)
  }

  test("geo similarity scores exist for all methods and are in [0, 1]") {
    assert(res.geoSimilarity.keySet ==
      (Pipeline.Metrics :+ "authenticity").toSet)
    res.geoSimilarity.values.foreach(v => assert(v >= 0.0 && v <= 1.0))
  }

  test("tree accessor resolves metric, authenticity and geo trees") {
    assert(res.tree("euclidean") eq res.patternTrees("euclidean"))
    assert(res.tree("authenticity") eq res.authTree)
    assert(res.tree("geo") eq res.geoTree)
    val e = intercept[IllegalArgumentException](res.tree("nope"))
    assert(e.getMessage.contains("unknown tree: nope"))
  }

  test("leafIndex resolves cuisines and rejects unknowns") {
    assert(res.cuisines(res.leafIndex("Korean")) == "Korean")
    intercept[IllegalArgumentException](res.leafIndex("Narnia"))
  }

  test("every cuisine has at least one mined pattern") {
    res.patterns.foreach(cp => assert(cp.nPatterns > 0, cp.cuisine))
  }

  test("pattern trees are non-degenerate (not a single chain of zero heights)") {
    res.patternTrees.values.foreach { t =>
      assert(t.merges.last.height > 0.0)
    }
  }

  test("East Asian cuisines are cophenetically close in the authenticity tree") {
    val t = res.authTree
    val jp = res.leafIndex("Japanese")
    val kr = res.leafIndex("Korean")
    val fr = res.leafIndex("French")
    assert(t.cophenetic(jp, kr) < t.cophenetic(jp, fr))
  }

  test("run rejects fewer than three cuisines before any clustering") {
    import spark.implicits._
    val two = RecipeGen.recipes(spark, 0.01).filter($"cuisine".isin("Japanese", "Korean"))
    val e = intercept[IllegalArgumentException](Pipeline.run(spark, two))
    assert(e.getMessage.contains("need at least three cuisines, got 2"), e.getMessage)
    assert(e.getMessage.contains("k = 2..min(12, n - 1)"), e.getMessage)
  }

  test("a reproduction on cached RecipeGen data is one Spark job with no shuffle") {
    cached.count() // materialise the cache outside the counted jobs
    val (out, jobs) = sparkJobsOf(Pipeline.run(spark, cached))
    assert(out.cuisines.size == 26)
    assert(jobs == 1, s"$jobs Spark jobs")
    val pass = Pipeline.cuisinePass(cached)
    pass.collect()
    val plan = pass.queryExecution.executedPlan
    assert(collect(plan) { case s: ShuffleExchangeLike => s }.isEmpty, plan.toString)
    assert(collect(plan) { case s: InMemoryTableScanExec => s }.size == 1, plan.toString)
  }

  test("results do not depend on how the recipes are partitioned") {
    def outputs(df: DataFrame) = {
      val (patterns, counts) = CuisinePass.results(Pipeline.cuisinePass(df)).unzip
      val res = Pipeline.run(spark, df)
      val trees = res.patternTrees + ("authenticity" -> res.authTree) + ("geo" -> res.geoTree)
      (patterns, counts, Authenticity.fingerprints(spark, df), trees.map { case (k, t) => k -> t.newick(res.cuisines) })
    }
    val (patterns, counts, fp, newick) = outputs(cached)
    Seq(1, 3).foreach { n =>
      val (p, c, f, nw) = outputs(cached.repartition(n))
      assert(p.map(_.cuisine) == patterns.map(_.cuisine), s"$n partitions")
      p.zip(patterns).foreach { case (a, b) =>
        assert(a.nRecipes == b.nRecipes, s"$n partitions, ${a.cuisine}")
        val d = Itemsets.diff(a.itemsets, b.itemsets)
        assert(d.isEmpty, s"$n partitions, ${a.cuisine}: ${d.take(5)}")
      }
      assert(c == counts, s"$n partitions")
      assert(f.cuisines == fp.cuisines && f.items == fp.items, s"$n partitions")
      val worst = f.matrix.flatten.zip(fp.matrix.flatten[Double]).map { case (u, v) => math.abs(u - v) }.max
      assert(worst <= 1e-12, s"$n partitions: worst cell difference $worst")
      assert(nw == newick, s"$n partitions")
    }
  }

  test("run rejects a null items or ingredients array with the cuisine and column named") {
    import spark.implicits._
    val ok = Seq((0L, "Greek", Seq("x"), Seq("x", "bake")))
    Seq(
      (1L, "Greek", Seq("y"), null: Seq[String]) -> "null items array in a recipe of cuisine Greek",
      (1L, "Greek", null: Seq[String], Seq("y")) -> "null ingredients array in a recipe of cuisine Greek",
      (1L, null: String, Seq("y"), Seq("y")) -> "null cuisine column in a recipe",
    ).foreach { case (bad, message) =>
      val df = (ok :+ bad).toDF("id", "cuisine", "ingredients", "items")
      val e = intercept[Exception](Pipeline.run(spark, df))
      assert(e.getMessage.contains(message), e.getMessage)
    }
  }
}
