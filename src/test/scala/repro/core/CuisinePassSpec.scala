package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.spark_partition_id
import repro.SparkSpec
import repro.SparkSpec.sparkActivityOf
import repro.fpm.{FPGrowth, FreqItemset}
import repro.geo.Regions
import repro.recipedb.{Recipe, RecipeGen}
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** [[CuisinePass]] at its own boundary and through each entry point that runs
  * it. The pass groups the rows by cuisine, interns each item once, reads a
  * layout clustered on `cuisine` without a shuffle, and rejects null input
  * naming the column. Each row of each table below is one test.
  */
class CuisinePassSpec extends SparkSpec {
  import AuthenticitySpec.{Counts, countsOf, cuisineCounts}
  import spark.implicits._

  /** The entry points and the columns each needs (`CuisinePass` reads every array column). */
  private val entryPoints = ListMap("CuisinePass" -> Seq(), "Pipeline.run" -> Seq("ingredients", "items"),
    "PatternMiner.minePerCuisine" -> Seq("items"), "Authenticity.fingerprints" -> Seq("ingredients"))

  /** A cached dataset and what its rows, collected to the driver, should give:
    * the rows by cuisine, their counts (checked against DuckDB), the miner's
    * patterns, the fingerprints of those counts, and the trees and geography
    * scores that `Pipeline.assemble` builds from those patterns and counts.
    */
  private final class Reference(val recipes: DataFrame) {
    recipes.count() // fill the cache, so the pass reads the cached rows
    val columns: Seq[String] = Seq("ingredients", "items").filter(recipes.columns.contains)
    val rows: Map[String, Seq[Seq[Seq[String]]]] = recipes.select("cuisine", columns: _*).collect().toSeq
      .groupMap(_.getString(0))(r => columns.indices.map(j => r.getSeq[String](j + 1)))
    val counts: Seq[Counts] = rows.toSeq.sortBy(_._1).map { case (c, rs) =>
      Counts(c, rs.size.toLong, rs.flatMap(_.head.distinct).groupMapReduce(identity)(_ => 1L)(_ + _))
    }
    AuthenticitySpec.assertCountsMatchDuckDb(counts, recipes)
    private lazy val mined = counts.map(c => // `items` is the last column
      PatternMiner.CuisinePatterns(c.cuisine, c.nRecipes,
        FPGrowth.mineLocal(rows(c.cuisine).map(_.last), PatternMiner.PaperMinSupport)))
    lazy val patterns = patternsOf(mined)
    lazy val fingerprints = Authenticity.fromCounts(counts.map(cuisineCounts))
    lazy val (newick, geoSimilarity) = {
      val r = Pipeline.assemble(mined, counts.map(cuisineCounts)); (newickOf(r), r.geoSimilarity)
    }
  }

  private def itemsets(fis: Seq[FreqItemset]) = fis.map(fi => fi.items.toSet -> fi.freq).toSet
  private def patternsOf(ps: Seq[PatternMiner.CuisinePatterns]) = ps.map(p => (p.cuisine, p.nRecipes, itemsets(p.itemsets)))
  private def newickOf(r: Pipeline.Results) = r.trees.map { case (k, t) => k -> t.newick(r.cuisines) }
  private def multiset[A](xs: Seq[A]) = xs.groupMapReduce(identity)(_ => 1)(_ + _)

  /** Runs `entry` on `recipes`; the check it returns asserts the result against `ref`. */
  private def pass(entry: String, recipes: DataFrame): Reference => Unit = entry match {
    case "CuisinePass" => // each cuisine's names, and every row's ids decoded back through them
      val decoded = CuisinePass(recipes, Seq("ingredients", "items").filter(recipes.columns.contains): _*) {
        (cuisine, names, arrays) => (cuisine, names.toSeq, arrays.head.indices.map(r => arrays.map(_(r).toSeq.map(names))))
      }
      ref => {
        assert(decoded.map(_._1) == ref.rows.keys.toSeq.sorted) // each cuisine once, sorted
        decoded.foreach { case (c, names, rs) => // each item interned once, and the rows as collected
          assert(names.sorted == ref.rows(c).flatten.flatten.distinct.sorted && multiset(rs) == multiset(ref.rows(c)), c)
        }
      }
    case "Pipeline.run" =>
      val r = Pipeline.run(spark, recipes)
      ref => {
        assert(patternsOf(r.patterns) == ref.patterns && r.counts.map(countsOf) == ref.counts)
        assert(newickOf(r) == ref.newick && r.geoSimilarity == ref.geoSimilarity)
        val geo = r.cuisines.forall(Regions.coordinates.contains) // else no geo tree, nothing compared with it
        assert(r.trees.keys.toSeq == (Pipeline.Metrics :+ "authenticity") ++ Option.when(geo)("geo"))
        assert(r.geoSimilarity.keySet == (if (geo) r.trees.keySet - "geo" else Set.empty))
        if (!geo) assert(intercept[IllegalArgumentException](r.tree("geo")).getMessage.contains("unknown tree: geo"))
      }
    case "PatternMiner.minePerCuisine" =>
      val ps = PatternMiner.minePerCuisine(recipes)
      ref => assert(patternsOf(ps) == ref.patterns)
    case "Authenticity.fingerprints" =>
      val fp = Authenticity.fingerprints(spark, recipes)
      def cells(f: Authenticity.Fingerprints) = (f.cuisines, f.items, f.matrix.toSeq.map(_.toSeq))
      ref => assert(cells(fp) == cells(ref.fingerprints))
  }

  /** Cached recipes of `cuisines` whose item names are multi-byte UTF-8,
    * with 300 distinct rare items of one byte length, frequent items of equal
    * byte length ("辣椒" and "crème" are both 6 bytes), one recipe that
    * lists an item twice in both columns and one whose columns are both
    * empty. The cuisines' rows alternate, and one row is long enough to make
    * a reader's reused row buffer grow.
    */
  private def utf8Recipes(cuisines: Seq[String]): DataFrame = {
    val rng = new scala.util.Random(16)
    val frequent = Seq("crème fraîche" -> 0.8, "辣椒" -> 0.7, "crème" -> 0.6, "sel" -> 0.5)
    val rare = (0 until 300).map(i => f"épice$i%03d")
    val recipes = for (r <- 0 until 80; (cuisine, c) <- cuisines.zipWithIndex) yield {
      val ingredients = frequent.collect { case (i, p) if rng.nextDouble() < p => i } ++
        Seq.fill(if (r == 40 && c == 0) 150 else 6)(rare(rng.nextInt(rare.size)))
      val items = ingredients ++ Seq("mijoter", "炒").filter(_ => rng.nextDouble() < 0.5)
      Recipe(c * 1000L + r, cuisine, ingredients, items)
    }
    (recipes :+ Recipe(-1L, cuisines(1), Seq("辣椒", "sel", "辣椒"), Seq("辣椒", "sel", "辣椒", "炒")) :+
      Recipe(-2L, cuisines(2), Seq.empty, Seq.empty)).toDF()
  }

  private val gen = "RecipeGen SF 0.02"
  private val datasets = ListMap[String, () => DataFrame](
    gen -> (() => RecipeGen.recipes(spark, 0.02)),
    "multi-byte names" -> (() => utf8Recipes(Seq("Côte d'Ivoire", "中国", "Crète"))),
    // cuisines with coordinates, which Pipeline.run also places on the map
    "multi-byte regions" -> (() => utf8Recipes(Seq("Rest Africa", "Chinese and Mongolian", "Greek"))),
    "tiny" -> (() => AuthenticitySpec.tiny(spark)),
  )
  private val references = mutable.Map.empty[String, Reference]
  private def reference(dataset: String) = references.getOrElseUpdate(dataset, new Reference(datasets(dataset)().cache()))
  override def afterAll(): Unit = try references.values.foreach(_.recipes.unpersist()) finally super.afterAll()

  private val layouts = ListMap[String, DataFrame => DataFrame](
    "as cached" -> identity,
    "repartition(1)" -> (_.repartition(1)),
    "repartition(3)" -> (_.repartition(3)),
    "local rows" -> (df => spark.createDataFrame(df.collect().toSeq.asJava, df.schema)),
  )

  for (dataset <- datasets.keys; (layout, lay) <- layouts)
    test(s"$dataset, $layout: each entry point returns what the collected rows give") {
      val ref = reference(dataset)
      if (layout == "repartition(3)") // some cuisine's rows sit in several partitions
        assert(lay(ref.recipes).select($"cuisine", spark_partition_id()).distinct().groupBy("cuisine").count()
          .as[(String, Long)].collect().exists(_._2 > 1))
      if (dataset == "tiny") assert(ref.counts == AuthenticitySpec.tinyCounts)
      if (dataset.startsWith("multi-byte")) { // long multi-byte patterns, the rare items counted, an empty recipe
        assert(ref.patterns.forall(_._3.exists { case (items, _) => items.size >= 3 && items("辣椒") }))
        assert(ref.rows.values.flatten.exists(_.forall(_.isEmpty)))
        assert(ref.counts.map(_.withItem.size).sum > 3 * 200, ref.counts.map(_.withItem.size))
      }
      for ((entry, columns) <- entryPoints if columns.forall(ref.columns.contains)) {
        val (check, activity) = sparkActivityOf(pass(entry, lay(ref.recipes)))
        check(ref)
        // Only RecipeGen's cached layout is clustered; the pass repartitions any other, one shuffle.
        assert(activity.shuffles == (if (dataset == gen && layout == "as cached") 0 else 1), s"$entry: $activity")
      }
    }

  /** Steps taken on new RecipeGen SF 0.02 recipes before the measured pass, and whether
    * that pass reads a shuffle: recipes passed over before they are cached keep their
    * uncached lineage, the generation's shuffle. An unfilled cache reports no layout,
    * so the first pass over it repartitions, and fills the cache.
    */
  private val preparations = Seq(
    Seq("cache", "fill") -> false,
    Seq("cache", "fill", "pass") -> false,
    Seq("cache", "pass") -> false,
    Seq("pass", "cache", "fill") -> true,
  )

  for (entry <- entryPoints.keys; (steps, readsShuffle) <- preparations)
    test(s"$entry after ${steps.mkString(", ")}: one Spark job, no shuffle written, results as cached") {
      val ref = reference(gen)
      val df = RecipeGen.recipes(spark, 0.02)
      try {
        val checks = steps.flatMap {
          case "cache" => df.cache(); None
          case "fill" => df.count(); None
          case "pass" => Some(pass(entry, df))
        }
        val (check, activity) = sparkActivityOf(pass(entry, df))
        assert(ref.rows.size == 26)
        (checks :+ check).foreach(_(ref))
        assert(activity.jobs == 1 && activity.stages == 1 && activity.shuffles == 0, activity)
        assert(activity.shuffleWriteBytes == 0 && (activity.shuffleReadBytes > 0) == readsShuffle, activity)
        if (steps.contains("pass")) assert(activity.sqlExecutions == 0, activity)
      } finally df.unpersist()
    }

  /** (entry point, a recipe (cuisine, ingredients, items) with a null, the message it fails with) */
  private val rejections = Seq(
    ("Pipeline.run", ("Crète", Seq("y"), Seq("y", null)), "null item in the items array of a recipe of cuisine Crète"),
    ("Pipeline.run", ("Crète", Seq(null, "y"), Seq("y")), "null item in the ingredients array of a recipe of cuisine Crète"),
    ("Pipeline.run", ("Greek", Seq("y"), null), "null items array in a recipe of cuisine Greek"),
    ("Pipeline.run", ("Greek", null, Seq("y")), "null ingredients array in a recipe of cuisine Greek"),
    ("Pipeline.run", (null, Seq("y"), Seq("y")), "null cuisine column in a recipe"),
    ("PatternMiner.minePerCuisine", ("Greek", Seq("x"), null), "null items array in a recipe of cuisine Greek"),
    ("PatternMiner.minePerCuisine", ("Greek", Seq("x"), Seq("x", null)),
      "null item in the items array of a recipe of cuisine Greek"),
    ("Authenticity.fingerprints", ("B", null, Seq("x")), "null ingredients array in a recipe of cuisine B"),
  )

  for ((entry, (cuisine, ingredients, items), message) <- rejections)
    test(s"$entry rejects a null with \"$message\"") {
      val df = Seq((0L, "Greek", Seq("x"), Seq("x", "bake")), (1L, cuisine, ingredients, items))
        .toDF("id", "cuisine", "ingredients", "items")
      val e = intercept[Exception](pass(entry, df))
      assert(e.getMessage.contains(message), e.getMessage)
    }
}
