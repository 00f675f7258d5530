package repro.recipedb

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class RecipeGenSpec extends SparkSpec {

  private val sf = 0.02
  private lazy val df = RecipeGen.recipes(spark, sf).cache()

  test("generation is deterministic in (sf, seed)") {
    val a = RecipeGen.recipes(spark, 0.005, seed = 7).orderBy("id")
      .collect().map(_.toString).toSeq
    val b = RecipeGen.recipes(spark, 0.005, seed = 7).orderBy("id")
      .collect().map(_.toString).toSeq
    assert(a == b)
  }

  test("different seeds change the data") {
    val a = RecipeGen.recipes(spark, 0.005, seed = 7).orderBy("id")
      .collect().map(_.toString).toSeq
    val b = RecipeGen.recipes(spark, 0.005, seed = 8).orderBy("id")
      .collect().map(_.toString).toSeq
    assert(a != b)
  }

  test("a scale factor that is not positive and finite is rejected, naming it") {
    Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity).foreach { bad =>
      val e = intercept[IllegalArgumentException](RecipeGen.recipes(spark, bad))
      assert(e.getMessage.contains(s"scale factor $bad is not positive and finite"), e.getMessage)
    }
  }

  test("generation is independent of partitioning") {
    val one = RecipeGen.recipes(spark, 0.005).repartition(1).orderBy("id")
      .collect().map(_.toString).toSeq
    val many = RecipeGen.recipes(spark, 0.005).repartition(13).orderBy("id")
      .collect().map(_.toString).toSeq
    assert(one == many)
  }

  test("each cuisine's recipes sit in one partition, over defaultParallelism partitions") {
    assert(df.rdd.getNumPartitions == spark.sparkContext.defaultParallelism)
    val spread = df.select(col("cuisine"), spark_partition_id().as("p")).distinct()
      .groupBy("cuisine").count().filter(col("count") =!= 1).collect()
    assert(spread.isEmpty, spread.mkString(", "))
    assert(df.select("cuisine").distinct().count() == CuisineSpecs.all.size)
  }

  test("total row count matches the cuisine ranges") {
    assert(df.count() == RecipeGen.totalRecipes(sf))
  }

  test("per-cuisine counts match nAt(sf) (oracle-checked)") {
    val got = df.groupBy("cuisine").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      got,
      "SELECT cuisine, count(*) AS n FROM recipes GROUP BY cuisine",
      "recipes" -> df.select("id", "cuisine"),
    )
    val counts = got.collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    CuisineSpecs.all.foreach { s =>
      assert(counts(s.name) == s.nAt(sf), s.name)
    }
  }

  test("at SF=1 cuisine sizes are exactly Table I counts (computed, not generated)") {
    CuisineSpecs.all.foreach(s => assert(s.nAt(1.0) == s.nRecipes, s.name))
    assert(RecipeGen.totalRecipes(1.0) == 118171L)
  }

  test("ids are unique and contiguous from 0") {
    val ids = df.select("id").collect().map(_.getLong(0)).sorted
    assert(ids.head == 0L && ids.last == ids.length - 1L)
    assert(ids.distinct.length == ids.length)
  }

  test("items column is ingredients plus processes and utensils, deduplicated") {
    val bad = df.filter(
      size(col("items")) =!= size(array_distinct(col("items"))) ||
        size(array_except(col("ingredients"), col("items"))) =!= 0)
    assert(bad.count() == 0)
  }

  test("category columns contain only items of their category") {
    val rows = df.select("ingredients", "items").collect()
    rows.foreach { r =>
      val ingredients = r.getSeq[String](0)
      ingredients.foreach(i => assert(Items.isIngredient(i), i))
      r.getSeq[String](1).diff(ingredients).foreach(i => assert(!Items.isIngredient(i), i))
    }
  }

  test("every recipe carries exactly the configured rare-ingredient draws (may collide)") {
    val rareCount = df.select(
      size(expr("filter(ingredients, i -> i like 'rare\\_%')")).as("n"))
    val ns = rareCount.collect().map(_.getInt(0))
    assert(ns.forall(n => n >= 1 && n <= RecipeGen.RarePerRecipe))
    // collisions are rare: the vast majority should have all 4
    val full = ns.count(_ == RecipeGen.RarePerRecipe).toDouble / ns.length
    assert(full > 0.8, s"fraction with all rare draws: $full")
  }

  test("rare pool scales with sf and inflates the vocabulary") {
    assert(RecipeGen.rarePoolSize(1.0) == 780)
    assert(RecipeGen.rarePoolSize(0.001) == 50)
    val vocab = df.select(explode(col("ingredients")).as("i")).distinct().count()
    assert(vocab > 26 * 30, s"vocabulary too small: $vocab") // 26 pools at sf=0.02
  }

  test("measured singleton supports track spec probabilities (oracle-checked)") {
    // Per-cuisine singleton support of a named distinctive item must be the
    // spec probability up to sampling noise; check a well-populated cuisine.
    val cuisine = "Italian"
    val item = "parmesan cheese"
    val n = CuisineSpecs.byName(cuisine).nAt(sf).toDouble
    val exploded = Oracle.explodedItems(df).filter(col("cuisine") === cuisine)
    val got = exploded.filter(col("item") === item)
      .agg(count(lit(1)).as("n_with"))
    Oracle.assertEquivalent(
      got,
      s"SELECT count(*) AS n_with FROM ex WHERE item = '$item'",
      "ex" -> exploded,
    )
    val support = got.collect().head.getLong(0) / n
    val p = CuisineSpecs.byName(cuisine).probs(item)
    val tol = 3 * math.sqrt(p * (1 - p) / n)
    assert(math.abs(support - p) <= tol, s"support $support vs p $p (tol $tol)")
  }

  test("pair supports multiply (independence): soy sauce + sesame oil in Korean") {
    val spec = CuisineSpecs.byName("Korean")
    val n = spec.nAt(sf).toDouble
    val pair = Set("soy sauce", "sesame oil")
    val withBoth = df.filter(col("cuisine") === "Korean")
      .filter(pair.map(i => array_contains(col("items"), i)).reduce(_ && _))
      .count()
    val expected = spec.expectedSupport(pair)
    val tol = 4 * math.sqrt(expected * (1 - expected) / n)
    assert(math.abs(withBoth / n - expected) <= tol,
      s"measured ${withBoth / n} vs expected $expected (n=$n)")
  }

  test("genRecipe is pure (same output on repeated driver-side calls)") {
    val spec = CuisineSpecs.byName("Thai")
    val a = RecipeGen.genRecipe(spec, 123L, 42L, 100)
    val b = RecipeGen.genRecipe(spec, 123L, 42L, 100)
    assert(a == b)
    assert(a.cuisine == "Thai")
    assert(a.items.filter(Items.isIngredient) == a.ingredients)
  }
}
