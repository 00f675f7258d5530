package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.fpm.Itemsets
import repro.recipedb.{Recipe, RecipeGen}

class PipelineSpec extends SparkSpec {

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
    val (out, activity) = sparkActivityOf(Pipeline.run(spark, cached))
    assert(out.cuisines.size == 26)
    assert(activity.jobs == 1 && activity.stages == 1, activity)
    assert(activity.shuffleReadBytes == 0 && activity.shuffleWriteBytes == 0, activity)
  }

  test("a second reproduction on the same cached DataFrame starts no SQL execution") {
    Pipeline.run(spark, cached)
    val (out, activity) = sparkActivityOf(Pipeline.run(spark, cached))
    assert(out.cuisines.size == 26)
    assert(activity.sqlExecutions == 0 && activity.jobs == 1, activity)
  }

  test("a DataFrame cached before its first reproduction is read from the cache, not regenerated") {
    def newick(res: Pipeline.Results) = res.authTree.newick(res.cuisines)
    val early = RecipeGen.recipes(spark, 0.01).cache()
    val late = RecipeGen.recipes(spark, 0.01)
    try {
      early.count()
      val (first, activity) = sparkActivityOf(Pipeline.run(spark, early))
      assert(activity.jobs == 1 && activity.stages == 1 && activity.shuffleReadBytes == 0, activity)
      // Reproduced before it is cached, a DataFrame keeps its uncached
      // lineage: the same results, read back from the generation's shuffle.
      Pipeline.run(spark, late)
      late.cache().count()
      val (again, lateActivity) = sparkActivityOf(Pipeline.run(spark, late))
      assert(lateActivity.shuffleReadBytes > 0, lateActivity)
      assert(newick(again) == newick(first))
    } finally {
      early.unpersist()
      late.unpersist()
    }
  }

  test("results do not depend on how the recipes are partitioned") {
    import spark.implicits._
    def outputs(df: DataFrame) = {
      val (res, activity) = sparkActivityOf(Pipeline.run(spark, df))
      val trees = res.patternTrees + ("authenticity" -> res.authTree) + ("geo" -> res.geoTree)
      (PatternMiner.minePerCuisine(df), Authenticity.itemCounts(df), Authenticity.fingerprints(spark, df),
        trees.map { case (k, t) => k -> t.newick(res.cuisines) }, activity)
    }
    val (patterns, counts, fp, newick, _) = outputs(cached)
    Seq(
      "repartition(1)" -> cached.repartition(1),
      "repartition(3)" -> cached.repartition(3),
      "local rows" -> cached.as[Recipe].collect().toSeq.toDF(),
    ).foreach { case (layout, df) =>
      val (p, c, f, nw, activity) = outputs(df)
      // One shuffle each: the pass reads one partition as it is, and
      // repartitions the other layouts on cuisine (which Spark merges with
      // repartition(3)).
      assert(activity.shuffles == 1, s"$layout: $activity")
      assert(p.map(_.cuisine) == patterns.map(_.cuisine), layout)
      p.zip(patterns).foreach { case (a, b) =>
        assert(a.nRecipes == b.nRecipes, s"$layout, ${a.cuisine}")
        val d = Itemsets.diff(a.itemsets, b.itemsets)
        assert(d.isEmpty, s"$layout, ${a.cuisine}: ${d.take(5)}")
      }
      assert(c == counts, layout)
      assert(f.cuisines == fp.cuisines && f.items == fp.items, layout)
      val worst = f.matrix.flatten.zip(fp.matrix.flatten[Double]).map { case (u, v) => math.abs(u - v) }.max
      assert(worst <= 1e-12, s"$layout: worst cell difference $worst")
      assert(nw == newick, layout)
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
