package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cluster._
import repro.geo.Regions
import repro.recipedb.RecipeGen

/** End-to-end reproduction pipeline: data → pattern mining → feature
  * vectors → HAC under three metrics (Figs 2–4), authenticity HAC (Fig 5),
  * geographic HAC (Fig 6), and the quantified tree comparisons behind the
  * paper's §VII validation narrative.
  *
  * Spark runs one [[CuisinePass]] per reproduction: it mines each cuisine's
  * `items` and counts its `ingredients` in the same task. Everything after
  * it runs on the driver. On cached RecipeGen data the pass is one Spark job
  * with no shuffle, and Spark plans it only for a DataFrame's first
  * reproduction.
  */
object Pipeline {

  val Metrics: Seq[String] = Seq("euclidean", "cosine", "jaccard")

  final case class Results(
      cuisines: IndexedSeq[String],
      patterns: Seq[PatternMiner.CuisinePatterns],
      features: PatternFeatures.Features,
      patternTrees: Map[String, Dendrogram], // one per metric
      authTree: Dendrogram,
      geoTree: Dendrogram,
      geoSimilarity: Map[String, Double], // mean Fowlkes–Mallows vs geo tree
  ) {
    def tree(name: String): Dendrogram = name match {
      case "authenticity" => authTree
      case "geo" => geoTree
      case metric =>
        require(patternTrees.contains(metric), s"unknown tree: $name")
        patternTrees(metric)
    }

    def leafIndex(cuisine: String): Int = {
      val i = cuisines.indexOf(cuisine)
      require(i >= 0, s"unknown cuisine: $cuisine")
      i
    }
  }

  /** Run everything on an existing recipes DataFrame, at the paper's
    * settings: minimum support 0.2 and average linkage. Needs at least three
    * cuisines, and fails if a recipe's `items` or `ingredients` array is
    * null. `spark` is unused; the benchmark harness still passes it.
    *
    * Cache `recipes`, and fill the cache, before its first reproduction: the
    * pass plans the DataFrame once, so one reproduced before it is cached
    * keeps its uncached lineage (same results, slower).
    */
  def run(spark: SparkSession, recipes: DataFrame): Results = {
    val (patterns, counts) = CuisinePass(recipes, "items", "ingredients") { (cuisine, arrays) =>
      (PatternMiner.mine(cuisine, arrays(0), PatternMiner.PaperMinSupport),
        Authenticity.count(cuisine, arrays(1)))
    }.unzip
    require(patterns.size >= 3,
      s"need at least three cuisines, got ${patterns.size}: the geography comparison " +
        "cuts the trees at k = 2..min(12, n - 1)")
    val features = PatternFeatures.fromPatterns(patterns)
    val cuisines = features.cuisines
    val vectors = features.matrix.toSeq

    val patternTrees = Metrics.map { m =>
      m -> Hac.cluster(Distance.pdist(vectors, Distance.byName(m)))
    }.toMap

    val fp = Authenticity.fromCounts(counts)
    val authTree = Hac.cluster(Distance.pdist(fp.matrix.toSeq, Distance.euclidean))

    val geoTree = Hac.cluster(Regions.distanceMatrix(cuisines))

    val ks = 2 to math.min(12, cuisines.size - 1)
    val sims = (Metrics.map(m => m -> patternTrees(m)) :+ ("authenticity" -> authTree)).map {
      case (name, t) => name -> TreeCompare.meanFowlkesMallows(t, geoTree, ks)
    }.toMap

    Results(cuisines, patterns, features, patternTrees, authTree, geoTree, sims)
  }

  /** Generate data at `sf` (seed 42) and run everything. */
  def runAtScale(spark: SparkSession, sf: Double): Results =
    run(spark, RecipeGen.recipes(spark, sf))
}
