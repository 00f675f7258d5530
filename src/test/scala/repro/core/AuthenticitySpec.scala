package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.recipedb.RecipeGen

class AuthenticitySpec extends SparkSpec {

  import AuthenticitySpec.itemCounts
  import spark.implicits._

  /** Tiny hand-checkable dataset: 2 cuisines, known memberships. */
  private lazy val tiny = Seq(
    (0L, "A", Seq("x", "y")),
    (1L, "A", Seq("x")),
    (2L, "A", Seq("y", "z")),
    (3L, "A", Seq("x")),
    (4L, "B", Seq("x")),
    (5L, "B", Seq("z")),
  ).toDF("id", "cuisine", "ingredients")

  /** N_c and n_i^c of `tiny`, counted by hand. */
  private val tinyCounts = Seq(
    Authenticity.CuisineCounts("A", 4L, Map("x" -> 3L, "y" -> 2L, "z" -> 1L)),
    Authenticity.CuisineCounts("B", 2L, Map("x" -> 1L, "z" -> 1L)),
  )

  private lazy val gen = RecipeGen.recipes(spark, 0.01).cache()

  /** Relative prevalence in SQL over the densified cuisine × item grid:
    * `recipes(id, cuisine)` and the distinct exploded `ex(id, cuisine, item)`.
    */
  private val relPrevalenceSql =
    """
    WITH per_c AS (SELECT cuisine, count(*) AS n FROM recipes GROUP BY cuisine),
         pairs AS (SELECT cuisine, item, count(*) AS m FROM ex GROUP BY cuisine, item),
         grid AS (SELECT c.cuisine, i.item FROM (SELECT DISTINCT cuisine FROM recipes) c
                  CROSS JOIN (SELECT DISTINCT item FROM ex) i),
         prev AS (
           SELECT g.cuisine, g.item,
                  CAST(coalesce(p.m, 0) AS DOUBLE) / per_c.n AS prevalence
           FROM grid g
           LEFT JOIN pairs p ON p.cuisine = g.cuisine AND p.item = g.item
           JOIN per_c ON per_c.cuisine = g.cuisine),
         sums AS (SELECT item, sum(prevalence) AS s, count(*) AS k FROM prev GROUP BY item)
    SELECT prev.cuisine AS cuisine, prev.item AS item,
           prev.prevalence - (sums.s - prev.prevalence) / (sums.k - 1) AS rel_prevalence
    FROM prev JOIN sums ON prev.item = sums.item
    """

  private def exploded(recipes: DataFrame): DataFrame =
    recipes.select($"id", $"cuisine", explode($"ingredients").as("item")).distinct()

  private def oracleTables(recipes: DataFrame): Seq[(String, DataFrame)] =
    Seq("recipes" -> recipes.select("id", "cuisine"), "ex" -> exploded(recipes))

  /** Every matrix cell as ((cuisine, item), rel_prevalence). */
  private def cells(fp: Authenticity.Fingerprints): Map[(String, String), Double] =
    (for {
      (c, ci) <- fp.cuisines.zipWithIndex
      (i, ii) <- fp.items.zipWithIndex
    } yield (c, i) -> fp.matrix(ci)(ii)).toMap

  test("fingerprints densify items a cuisine never uses (B/y)") {
    assert(itemCounts(tiny) == tinyCounts)
    val rel = cells(Authenticity.fingerprints(spark, tiny))
    assert(rel.size == 6)
    // P_B(y) = 0 is filled in although no (B, y) count exists.
    assert(math.abs(rel(("B", "y")) - (0.0 - 2.0 / 4)) < 1e-12)
    assert(math.abs(rel(("A", "y")) - (2.0 / 4 - 0.0)) < 1e-12)
  }

  test("relative prevalence on the tiny example (K=2: p - other cuisine's P)") {
    val rel = cells(Authenticity.fingerprints(spark, tiny))
    val pA = Map("x" -> 3.0 / 4, "y" -> 2.0 / 4, "z" -> 1.0 / 4)
    val pB = Map("x" -> 1.0 / 2, "y" -> 0.0, "z" -> 1.0 / 2)
    Seq("x", "y", "z").foreach { i =>
      assert(math.abs(rel(("A", i)) - (pA(i) - pB(i))) < 1e-12, s"A/$i")
      assert(math.abs(rel(("B", i)) - (pB(i) - pA(i))) < 1e-12, s"B/$i")
    }
  }

  /** N_c and n_i^c of `recipes` against the same counts in DuckDB. */
  private def assertCountsMatchDuckDb(recipes: DataFrame): Unit = {
    val counts = itemCounts(recipes)
    val withItem = counts.flatMap(c => c.withItem.map { case (i, n) => (c.cuisine, i, n) })
    Oracle.assertEquivalent(
      withItem.toDF("cuisine", "item", "n_with_item"),
      "SELECT cuisine, item, count(*) AS n_with_item FROM ex GROUP BY cuisine, item",
      "ex" -> exploded(recipes),
    )
    Oracle.assertEquivalent(
      counts.map(c => (c.cuisine, c.nRecipes)).toDF("cuisine", "n_recipes"),
      "SELECT cuisine, count(*) AS n_recipes FROM recipes GROUP BY cuisine",
      "recipes" -> recipes.select("id", "cuisine"),
    )
  }

  test("item counts are oracle-checked against DuckDB on generated data") {
    assertCountsMatchDuckDb(gen)
  }

  test("item counts add up a cuisine's rows spread over several input partitions") {
    val spread = tiny.repartition(3)
    val partitionsOfA = spread.filter($"cuisine" === "A")
      .select(spark_partition_id()).distinct().count()
    assert(partitionsOfA > 1, s"cuisine A's rows sit in $partitionsOfA partition(s)")
    assert(itemCounts(spread) == tinyCounts)
    assertCountsMatchDuckDb(gen.repartition(8))
  }

  test("item counts count a recipe once however often it lists an item") {
    val dup = Seq((0L, "A", Seq("x", "x", "y")), (1L, "A", Seq("x"))).toDF("id", "cuisine", "ingredients")
    assert(itemCounts(dup) ==
      Seq(Authenticity.CuisineCounts("A", 2L, Map("x" -> 2L, "y" -> 1L))))
  }

  test("item counts count an empty item array as a recipe with no items") {
    val df = Seq(("Greek", Seq("x")), ("Greek", Seq.empty[String])).toDF("cuisine", "ingredients")
    assert(itemCounts(df) ==
      Seq(Authenticity.CuisineCounts("Greek", 2L, Map("x" -> 1L))))
  }

  test("item counts reject a null item array with the cuisine and column named") {
    val bad = Seq((0L, "B", Seq("x")), (1L, "B", null: Seq[String])).toDF("id", "cuisine", "ingredients")
    val e = intercept[Exception](Authenticity.fingerprints(spark, tiny.union(bad)))
    assert(e.getMessage.contains("null ingredients array in a recipe of cuisine B"), e.getMessage)
  }

  test("item counts reject a null item inside an item array with the cuisine and column named") {
    val bad = Seq((0L, "B", Seq("x")), (1L, "B", Seq(null, "x"))).toDF("id", "cuisine", "ingredients")
    val e = intercept[Exception](itemCounts(tiny.union(bad)))
    assert(e.getMessage.contains("null item in the ingredients array of a recipe of cuisine B"), e.getMessage)
  }

  test("fingerprints run in one Spark job") {
    // One grouped pass over the cached recipes, already clustered by cuisine.
    gen.count() // materialise the cache outside the counted jobs
    val (fp, activity) = sparkActivityOf(Authenticity.fingerprints(spark, gen))
    assert(fp.cuisines.size == 26)
    assert(activity.jobs == 1, activity)
  }

  test("fingerprints equal the DuckDB relative-prevalence SQL on generated data to 1e-12") {
    val fp = Authenticity.fingerprints(spark, gen)
    val (_, rows) = Oracle.query(relPrevalenceSql, oracleTables(gen): _*)
    val expected = rows.map(r => (r.getString(0), r.getString(1)) -> r.getDouble(2)).toMap
    val got = cells(fp)
    assert(got.keySet == expected.keySet)
    val worst = got.map { case (k, v) => math.abs(v - expected(k)) }.max
    assert(worst < 1e-12, s"worst cell difference: $worst")
  }

  test("relative prevalence sums to zero across cuisines for every item") {
    val fp = Authenticity.fingerprints(spark, gen)
    val worst = fp.items.indices.map(j => math.abs(fp.matrix.map(_(j)).sum)).max
    assert(worst < 1e-9, s"worst per-item sum: $worst")
  }

  test("relative prevalence is oracle-checked against DuckDB on the tiny example") {
    val got = cells(Authenticity.fingerprints(spark, tiny)).toSeq
      .map { case ((c, i), v) => (c, i, v) }.toDF("cuisine", "item", "rel_prevalence")
    Oracle.assertEquivalent(got, relPrevalenceSql, oracleTables(tiny): _*)
  }

  test("fingerprints require at least two cuisines") {
    val one = tiny.filter($"cuisine" === "A")
    intercept[IllegalArgumentException](Authenticity.fingerprints(spark, one))
  }

  test("fingerprints build a dense, deterministically ordered matrix") {
    val fp = Authenticity.fingerprints(spark, tiny)
    assert(fp.cuisines == IndexedSeq("A", "B"))
    assert(fp.items == IndexedSeq("x", "y", "z"))
    assert(fp.matrix.length == 2 && fp.matrix.head.length == 3)
    assert(math.abs(fp.matrix(0)(0) - 0.25) < 1e-12) // A/x
    assert(math.abs(fp.matrix(1)(0) + 0.25) < 1e-12) // B/x
  }

  test("fingerprints on generated data have one row per cuisine") {
    val fp = Authenticity.fingerprints(spark, gen)
    assert(fp.cuisines.size == 26)
    assert(fp.matrix.forall(_.length == fp.items.size))
  }

  test("authenticity separates distinctive items: soy sauce marks East Asia") {
    val fp = Authenticity.fingerprints(spark, gen)
    val soyIdx = fp.items.indexOf("soy sauce")
    assert(soyIdx >= 0)
    def rel(c: String) = fp.matrix(fp.cuisines.indexOf(c))(soyIdx)
    assert(rel("Japanese") > 0.2)
    assert(rel("Korean") > 0.2)
    assert(rel("French") < 0.05)
  }
}

object AuthenticitySpec {

  /** N_c and n_i^c of the `ingredients` of `recipes`, one per cuisine sorted
    * by cuisine, from the pass that `Authenticity.fingerprints` runs.
    */
  def itemCounts(recipes: DataFrame): Seq[Authenticity.CuisineCounts] =
    CuisinePass(recipes, "ingredients")((cuisine, names, arrays) => Authenticity.count(cuisine, names, arrays(0)))
}
