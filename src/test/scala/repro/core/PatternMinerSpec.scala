package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.fpm.{Itemsets, MLlibFPGrowth}
import repro.recipedb.RecipeGen
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._

class PatternMinerSpec extends SparkSpec {

  import spark.implicits._

  private lazy val recipes = RecipeGen.recipes(spark, 0.01).cache()
  private lazy val mined = PatternMiner.minePerCuisine(recipes)

  test("per-cuisine mining equals MLlib FP-Growth on every cuisine") {
    // The program mines with FPGrowth.mineIds; the independent oracle is
    // MLlib's distributed PFP, which shares no code with it. BruteForce
    // would blow up on ~23 frequent items per transaction. The 26 fits are
    // small Spark jobs, so they run concurrently on the shared session; each
    // cuisine's comparison is then checked in cuisine order.
    val cuisines = recipes.select("cuisine").distinct().as[String].collect().sorted
    assert(mined.map(_.cuisine) == cuisines.toSeq)
    val oracle = Await.result(Future.traverse(cuisines.toSeq) { c =>
      Future {
        val tx = recipes.filter($"cuisine" === c).select("items").as[Seq[String]]
        (MLlibFPGrowth.mine(tx, PatternMiner.PaperMinSupport), tx.count())
      }
    }, 10.minutes)
    cuisines.lazyZip(mined).lazyZip(oracle).foreach { case (c, cp, (ref, n)) =>
      val d = Itemsets.diff(cp.itemsets, ref)
      assert(d.isEmpty, s"$c: ${d.take(5)}")
      assert(cp.nRecipes == n, c)
      cp.itemsets.foreach(fi => assert(fi.support >= 0.2 - 1e-12, s"$c $fi"))
    }
  }

  test("singleton pattern supports are oracle-checked against DuckDB") {
    val c = "Japanese"
    val cp = mined.find(_.cuisine == c).get
    val singles = cp.itemsets.filter(_.items.size == 1)
    assert(singles.nonEmpty)
    val ex = Oracle.exploded(recipes, "items").filter($"cuisine" === c)
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
