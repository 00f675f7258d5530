package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.{Oracle, SparkSpec}
import repro.recipedb.RecipeGen

class AuthenticitySpec extends SparkSpec {

  import AuthenticitySpec.{Counts, countsOf, cuisineCounts, tinyCounts}
  import spark.implicits._

  private lazy val tiny = AuthenticitySpec.tiny(spark)

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

  private def oracleTables(recipes: DataFrame): Seq[(String, DataFrame)] =
    Seq("recipes" -> recipes.select("id", "cuisine"), "ex" -> Oracle.exploded(recipes, "ingredients").distinct())

  /** Every matrix cell as ((cuisine, item), rel_prevalence). */
  private def cells(fp: Authenticity.Fingerprints): Map[(String, String), Double] =
    (for {
      (c, ci) <- fp.cuisines.zipWithIndex
      (i, ii) <- fp.items.zipWithIndex
    } yield (c, i) -> fp.matrix(ci)(ii)).toMap

  test("fingerprints build a dense, deterministically ordered matrix") {
    // From the hand counts, with no Spark job. P_B(y) = 0 is filled in
    // although no (B, y) count exists.
    val fp = Authenticity.fromCounts(tinyCounts.map(cuisineCounts))
    assert(fp.cuisines == IndexedSeq("A", "B") && fp.items == IndexedSeq("x", "y", "z"))
    assert(fp.matrix.length == 2 && fp.matrix.forall(_.length == 3))
    val pA = Seq(3.0 / 4, 2.0 / 4, 1.0 / 4)
    val pB = Seq(1.0 / 2, 0.0, 1.0 / 2)
    for (j <- 0 until 3) { // K = 2: p is P minus the other cuisine's P
      assert(math.abs(fp.matrix(0)(j) - (pA(j) - pB(j))) < 1e-12, s"A/${fp.items(j)}")
      assert(math.abs(fp.matrix(1)(j) - (pB(j) - pA(j))) < 1e-12, s"B/${fp.items(j)}")
    }
  }

  test("item counts drop the names no ingredient array holds") {
    // The pass interns every column with one table, so in Pipeline.run the
    // names also hold the processes and utensils of the `items` column.
    val c = Authenticity.count("A", Array("x", "bake", "y", "pan"), Array(Array(0, 2), Array(0), Array.empty[Int]))
    assert(c.items.toSeq == Seq("x", "y") && c.withItem.toSeq == Seq(2, 1))
    assert(countsOf(c) == Counts("A", 3L, Map("x" -> 2L, "y" -> 1L)))
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

  /** Tiny hand-checkable dataset: 2 cuisines, known memberships. */
  def tiny(spark: SparkSession): DataFrame = spark.createDataFrame(Seq(
    (0L, "A", Seq("x", "y")), (1L, "A", Seq("x")), (2L, "A", Seq("y", "z")), (3L, "A", Seq("x")),
    (4L, "B", Seq("x")), (5L, "B", Seq("z")))).toDF("id", "cuisine", "ingredients")

  /** N_c and n_i^c of `tiny`, counted by hand. */
  val tinyCounts: Seq[Counts] = Seq(
    Counts("A", 4L, Map("x" -> 3L, "y" -> 2L, "z" -> 1L)),
    Counts("B", 2L, Map("x" -> 1L, "z" -> 1L)),
  )

  /** One cuisine's N_c and n_i^c, keyed by item, in a form that compares by value. */
  final case class Counts(cuisine: String, nRecipes: Long, withItem: Map[String, Long])

  def countsOf(c: Authenticity.CuisineCounts): Counts =
    Counts(c.cuisine, c.nRecipes, c.items.zip(c.withItem.map(_.toLong)).toMap)

  /** `countsOf`'s inverse: what `Authenticity.fromCounts` reads. */
  def cuisineCounts(c: Counts): Authenticity.CuisineCounts =
    Authenticity.CuisineCounts(c.cuisine, c.nRecipes, c.withItem.keys.toArray, c.withItem.values.map(_.toInt).toArray)

  /** `counts` against N_c and n_i^c of the `ingredients` of `recipes` in DuckDB. */
  def assertCountsMatchDuckDb(counts: Seq[Counts], recipes: DataFrame): Unit = {
    import recipes.sparkSession.implicits._
    val withItem = counts.flatMap(c => c.withItem.map { case (i, n) => (c.cuisine, i, n) })
    Oracle.assertEquivalent(withItem.toDF("cuisine", "item", "n_with_item"),
      "SELECT cuisine, item, count(*) AS n_with_item FROM ex GROUP BY cuisine, item",
      "ex" -> Oracle.exploded(recipes, "ingredients").distinct())
    Oracle.assertEquivalent(counts.map(c => (c.cuisine, c.nRecipes)).toDF("cuisine", "n_recipes"),
      "SELECT cuisine, count(*) AS n_recipes FROM recipes GROUP BY cuisine",
      "recipes" -> recipes.select("id", "cuisine"))
  }
}
