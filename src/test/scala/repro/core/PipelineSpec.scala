package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.fpm.{FPGrowth, Itemsets}
import repro.recipedb.{Recipe, RecipeGen}

class PipelineSpec extends SparkSpec {

  // One full pipeline run at small scale, shared by the assertions below.
  private lazy val res = Pipeline.runAtScale(spark, 0.02)

  private lazy val cached = RecipeGen.recipes(spark, 0.02).cache()

  /** Cached recipes of `cuisines` whose item names are multi-byte UTF-8,
    * with 300 distinct rare items of one byte length, frequent items of equal
    * byte length ("辣椒" and "crème" are both 6 bytes) and one recipe that
    * lists an item twice in both columns. The cuisines' rows alternate, and
    * one row is long enough to make a reader's reused row buffer grow.
    */
  private def utf8Recipes(cuisines: Seq[String]): DataFrame = {
    import spark.implicits._
    val rng = new scala.util.Random(16)
    val frequent = Seq("crème fraîche" -> 0.8, "辣椒" -> 0.7, "crème" -> 0.6, "sel" -> 0.5)
    val rare = (0 until 300).map(i => f"épice$i%03d")
    val recipes = for {
      r <- 0 until 80
      (cuisine, c) <- cuisines.zipWithIndex
    } yield {
      val ingredients = frequent.collect { case (i, p) if rng.nextDouble() < p => i } ++
        Seq.fill(if (r == 40 && c == 0) 150 else 6)(rare(rng.nextInt(rare.size)))
      val items = ingredients ++ Seq("mijoter", "炒").filter(_ => rng.nextDouble() < 0.5)
      Recipe(c * 1000L + r, cuisine, ingredients, items)
    }
    val twice = Recipe(-1L, cuisines(1), Seq("辣椒", "sel", "辣椒"), Seq("辣椒", "sel", "辣椒", "炒"))
    (recipes :+ twice).toDF().cache()
  }

  test("pipeline yields all 26 cuisines in sorted order") {
    assert(res.cuisines.size == 26)
    assert(res.cuisines == res.cuisines.sorted)
  }

  test("a pattern tree exists per metric and has 26 leaves") {
    // The order ReproJob prints the trees in and the benchmark names them.
    assert(res.trees.keys.toSeq == Pipeline.Metrics ++ Seq("authenticity", "geo"))
    res.trees.foreach { case (name, t) => assert(t.nLeaves == 26, name) }
  }

  test("feature matrix is binary with one row per cuisine") {
    assert(res.features.matrix.length == 26)
    res.features.matrix.foreach(row => assert(row.forall(v => v == 0.0 || v == 1.0)))
    assert(res.features.patternUniverse.nonEmpty)
  }

  test("geo similarity scores exist for all methods and are in [0, 1]") {
    assert(res.geoSimilarity.keySet == res.trees.keySet - "geo")
    res.geoSimilarity.values.foreach(v => assert(v >= 0.0 && v <= 1.0))
  }

  test("tree accessor resolves metric, authenticity and geo trees") {
    res.trees.foreach { case (name, t) => assert(res.tree(name) eq t, name) }
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
    Pipeline.Metrics.foreach { m =>
      assert(res.trees(m).merges.last.height > 0.0, m)
    }
  }

  test("East Asian cuisines are cophenetically close in the authenticity tree") {
    val t = res.trees("authenticity")
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
    def newick(res: Pipeline.Results) = res.trees("authenticity").newick(res.cuisines)
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

  test("a DataFrame reproduced as soon as it is cached gives the results of a filled cache") {
    def newick(res: Pipeline.Results) = res.trees.map { case (k, t) => k -> t.newick(res.cuisines) }
    val unfilled = RecipeGen.recipes(spark, 0.01).cache()
    val filled = RecipeGen.recipes(spark, 0.01).cache()
    try {
      filled.count()
      val expected = Pipeline.run(spark, filled)
      // The unfilled cache reports no layout, so the first pass repartitions;
      // it also fills the cache, which the second pass reads as it is.
      val first = Pipeline.run(spark, unfilled)
      val (second, activity) = sparkActivityOf(Pipeline.run(spark, unfilled))
      assert(activity.jobs == 1 && activity.shuffles == 0 && activity.shuffleReadBytes == 0, activity)
      Seq("first" -> first, "second" -> second).foreach { case (run, got) =>
        assert(got.patterns.map(_.cuisine) == expected.patterns.map(_.cuisine), run)
        got.patterns.zip(expected.patterns).foreach { case (a, b) =>
          val d = Itemsets.diff(a.itemsets, b.itemsets)
          assert(d.isEmpty, s"$run, ${a.cuisine}: ${d.take(5)}")
        }
        assert(newick(got) == newick(expected), run)
        assert(got.geoSimilarity == expected.geoSimilarity, run)
      }
    } finally {
      unfilled.unpersist()
      filled.unpersist()
    }
  }

  test("results do not depend on how the recipes are partitioned") {
    import spark.implicits._
    def outputs(df: DataFrame) = {
      val (res, activity) = sparkActivityOf(Pipeline.run(spark, df))
      (PatternMiner.minePerCuisine(df), AuthenticitySpec.itemCounts(df), Authenticity.fingerprints(spark, df),
        res.trees.map { case (k, t) => k -> t.newick(res.cuisines) }, activity)
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

  test("interning in the pass matches driver-side mining and counts on multi-byte names of a cached DataFrame") {
    import spark.implicits._
    val named = utf8Recipes(Seq("Côte d'Ivoire", "中国", "Crète"))
    // Pipeline.run places cuisines on the map, so it needs known regions.
    val regions = utf8Recipes(Seq("Rest Africa", "Chinese and Mongolian", "Greek"))
    try Seq(named, regions).foreach { cached =>
      val byCuisine = cached.as[Recipe].collect().toSeq.groupBy(_.cuisine).toSeq.sortBy(_._1)
      val patterns = byCuisine.map { case (_, rs) => FPGrowth.mineLocal(rs.map(_.items), PatternMiner.PaperMinSupport) }
      val counts = byCuisine.map { case (c, rs) =>
        val withItem = rs.flatMap(_.ingredients.distinct).groupBy(identity).map { case (i, n) => i -> n.size.toLong }
        Authenticity.CuisineCounts(c, rs.size.toLong, withItem)
      }
      // The reference is not trivial: long multi-byte patterns, and the
      // rare items counted.
      patterns.foreach(fis => assert(fis.exists(fi => fi.items.size >= 3 && fi.items.contains("辣椒"))))
      assert(counts.map(_.withItem.size).sum > 3 * 200, counts.map(_.withItem.size))
      def assertPatterns(layout: String, got: Seq[PatternMiner.CuisinePatterns]): Unit = {
        assert(got.map(c => c.cuisine -> c.nRecipes) == counts.map(c => c.cuisine -> c.nRecipes), layout)
        got.zip(patterns).foreach { case (cp, expected) =>
          val d = Itemsets.diff(cp.itemsets, expected)
          assert(d.isEmpty, s"$layout, ${cp.cuisine}: ${d.take(5)}")
        }
      }
      cached.count() // fill the cache, so the pass reads the cached rows
      Seq("cached toDF" -> cached, "repartition(1)" -> cached.repartition(1), "repartition(3)" -> cached.repartition(3))
        .foreach { case (layout, df) =>
          assertPatterns(layout, PatternMiner.minePerCuisine(df))
          assert(AuthenticitySpec.itemCounts(df) == counts, layout)
          if (cached eq regions) assertPatterns(s"$layout, Pipeline.run", Pipeline.run(spark, df).patterns)
        }
    } finally {
      named.unpersist()
      regions.unpersist()
    }
  }

  test("run rejects a null item inside an items or ingredients array with the cuisine and column named") {
    import spark.implicits._
    val ok = Seq((0L, "Crète", Seq("x"), Seq("x", "bake")))
    Seq(
      (1L, "Crète", Seq("y"), Seq("y", null)) -> "null item in the items array of a recipe of cuisine Crète",
      (1L, "Crète", Seq(null, "y"), Seq("y")) -> "null item in the ingredients array of a recipe of cuisine Crète",
    ).foreach { case (bad, message) =>
      val df = (ok :+ bad).toDF("id", "cuisine", "ingredients", "items")
      val e = intercept[Exception](Pipeline.run(spark, df))
      assert(e.getMessage.contains(message), e.getMessage)
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
