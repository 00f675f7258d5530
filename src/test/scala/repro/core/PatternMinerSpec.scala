package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.fpm.{FreqItemset, Itemsets, MLlibFPGrowth}
import repro.recipedb.{CuisineSpecs, RecipeGen}

class PatternMinerSpec extends SparkSpec {

  import spark.implicits._

  private lazy val recipes = RecipeGen.recipes(spark, 0.01).cache()
  private lazy val mined = PatternMiner.minePerCuisine(recipes)

  test("one result per cuisine, sorted by cuisine name") {
    assert(mined.map(_.cuisine) == CuisineSpecs.all.map(_.name).sorted)
  }

  test("nRecipes per cuisine matches the generator") {
    mined.foreach { cp =>
      assert(cp.nRecipes == CuisineSpecs.byName(cp.cuisine).nAt(0.01), cp.cuisine)
    }
  }

  test("per-cuisine mining equals MLlib FP-Growth on every cuisine") {
    // The program mines with FPGrowth.mineLocal; the independent oracle is
    // MLlib's distributed PFP, which shares no code with it. BruteForce
    // would blow up on ~23 frequent items per transaction.
    val cuisines = recipes.select("cuisine").distinct().as[String].collect().sorted
    assert(mined.map(_.cuisine) == cuisines.toSeq)
    cuisines.zip(mined).foreach { case (c, cp) =>
      val tx = recipes.filter($"cuisine" === c).select("items").as[Seq[String]]
      val d = Itemsets.diff(cp.itemsets, MLlibFPGrowth.mine(tx, PatternMiner.PaperMinSupport))
      assert(d.isEmpty, s"$c: ${d.take(5)}")
      assert(cp.nRecipes == tx.count(), c)
    }
  }

  test("all cuisines are mined in fewer Spark jobs than there are cuisines") {
    // Guards against a return to one mining job (or more) per cuisine.
    recipes.count() // materialise the cache outside the counted jobs
    val (out, activity) = sparkActivityOf(PatternMiner.minePerCuisine(recipes))
    assert(out.size == CuisineSpecs.all.size)
    assert(activity.jobs > 0 && activity.jobs < out.size, s"$activity for ${out.size} cuisines")
  }

  test("a null item array is rejected with the cuisine and column named") {
    val bad = Seq(("Greek", Seq("x")), ("Greek", null: Seq[String])).toDF("cuisine", "items")
    val e = intercept[Exception](PatternMiner.minePerCuisine(bad))
    assert(e.getMessage.contains("null items array in a recipe of cuisine Greek"), e.getMessage)
  }

  test("a null item inside an item array is rejected with the cuisine and column named") {
    val bad = Seq(("Greek", Seq("x")), ("Greek", Seq("x", null))).toDF("cuisine", "items")
    val e = intercept[Exception](PatternMiner.minePerCuisine(bad))
    assert(e.getMessage.contains("null item in the items array of a recipe of cuisine Greek"), e.getMessage)
  }

  test("an empty item array is mined as a recipe with no items") {
    val df = Seq(("Greek", Seq("x")), ("Greek", Seq.empty[String])).toDF("cuisine", "items")
    val Seq(cp) = PatternMiner.minePerCuisine(df, minSupport = 0.5)
    assert(cp.nRecipes == 2L)
    assert(cp.itemsets == Seq(FreqItemset(Seq("x"), 1L, 0.5)))
  }

  test("singleton pattern supports are oracle-checked against DuckDB") {
    val c = "Japanese"
    val cp = mined.find(_.cuisine == c).get
    val singles = cp.itemsets.filter(_.items.size == 1)
    assert(singles.nonEmpty)
    val ex = Oracle.explodedItems(recipes).filter($"cuisine" === c)
    val got = ex.groupBy("item").agg(count(lit(1)).as("freq"))
      .filter($"freq" >= math.ceil(cp.nRecipes * 0.2).toLong)
    Oracle.assertEquivalent(
      got,
      s"SELECT item, count(*) AS freq FROM ex GROUP BY item " +
        s"HAVING count(*) >= ${math.ceil(cp.nRecipes * 0.2).toLong}",
      "ex" -> ex,
    )
    val oracleSingles = got.collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(singles.map(fi => fi.items.head -> fi.freq).toMap == oracleSingles)
  }

  test("all mined supports meet the threshold") {
    mined.foreach { cp =>
      cp.itemsets.foreach(fi => assert(fi.support >= 0.2 - 1e-12, s"${cp.cuisine} $fi"))
    }
  }

  test("supportOf looks up by set regardless of order") {
    val cp = mined.find(_.itemsets.exists(_.items.size >= 2)).get
    val fi = cp.itemsets.find(_.items.size >= 2).get
    assert(cp.supportOf(fi.items.reverse.toSet).contains(fi.support))
    assert(cp.supportOf(Set("no-such-item-xyz")).isEmpty)
  }

  test("a custom support threshold is honoured") {
    val strict = PatternMiner.minePerCuisine(
      recipes.filter($"cuisine" === "Greek"), minSupport = 0.5)
    val loose = mined.find(_.cuisine == "Greek").get
    assert(strict.head.nPatterns < loose.nPatterns)
    strict.head.itemsets.foreach(fi => assert(fi.support >= 0.5))
    Seq(0.0, 1.5).foreach { bad =>
      intercept[IllegalArgumentException](PatternMiner.minePerCuisine(recipes, minSupport = bad))
    }
  }
}
