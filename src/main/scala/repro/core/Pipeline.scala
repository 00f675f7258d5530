package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cluster._
import repro.geo.Regions
import scala.collection.immutable.ListMap

/** End-to-end reproduction pipeline: data → pattern mining → feature
  * vectors → the k-means elbow (Fig 1), HAC under three metrics (Figs 2–4),
  * authenticity HAC (Fig 5), geographic HAC (Fig 6), and the quantified tree
  * comparisons behind the paper's §VII validation narrative.
  *
  * Spark runs one [[CuisinePass]] per reproduction: it mines each cuisine's
  * `items` and counts its `ingredients`, both interned to the same Int ids,
  * in one task. Everything after it runs on the driver, in [[assemble]]. On
  * cached RecipeGen data the pass is one Spark job with no shuffle, and Spark
  * plans it only for a DataFrame's first reproduction.
  */
object Pipeline {

  val Metrics: Seq[String] = Seq("euclidean", "cosine", "jaccard")

  /** The flat cuts k at which the geography comparison scores each tree of
    * `n` cuisines against the geo tree.
    */
  def geoCuts(n: Int): Range = 2 to math.min(12, n - 1)

  final case class Results(
      cuisines: IndexedSeq[String],
      patterns: Seq[PatternMiner.CuisinePatterns],
      counts: Seq[Authenticity.CuisineCounts], // the pass's N_c and n_i^c, in `patterns` order
      features: PatternFeatures.Features,
      trees: ListMap[String, Dendrogram], // Metrics, "authenticity", then "geo" if all cuisines have coordinates
      geoSimilarity: Map[String, Double], // mean Fowlkes–Mallows vs the geo tree; empty without one
  ) {
    /** Fig 1: k-means WCSS on the pattern vectors for k = 1..min(10, n) over
      * n cuisines, computed on first read.
      */
    lazy val wcss: Seq[(Int, Double)] = KMeans.elbow(features.matrix, 1 to math.min(10, cuisines.size))

    def tree(name: String): Dendrogram = {
      require(trees.contains(name), s"unknown tree: $name")
      trees(name)
    }

    def leafIndex(cuisine: String): Int = {
      val i = cuisines.indexOf(cuisine)
      require(i >= 0, s"unknown cuisine: $cuisine")
      i
    }
  }

  /** Run everything on an existing recipes DataFrame, at the paper's
    * settings: minimum support 0.2 and average linkage. Needs at least three
    * cuisines, and fails on a null `items` or `ingredients` array or item.
    * Fig 1 covers k = 1..min(10, n) for n cuisines. A cuisine without
    * coordinates skips the geography tree and comparison.
    * `spark` is unused; the benchmark harness still passes it.
    *
    * Cache `recipes`, and fill the cache, before its first reproduction: the
    * pass plans the DataFrame once, so one reproduced before it is cached
    * keeps its uncached lineage (same results, slower).
    */
  def run(spark: SparkSession, recipes: DataFrame): Results = {
    val (patterns, counts) = CuisinePass(recipes, "items", "ingredients") { (cuisine, names, arrays) =>
      (PatternMiner.mine(cuisine, names, arrays(0), PatternMiner.PaperMinSupport),
        Authenticity.count(cuisine, names, arrays(1)))
    }.unzip
    assemble(patterns, counts)
  }

  /** Everything `run` does after its pass, on the driver with no Spark job:
    * features, fingerprints, the trees and the geography comparison.
    * `patterns` and `counts` must name the same cuisines in the same order,
    * which is the leaf order; `run` passes them sorted. Needs at least three
    * cuisines. `assemble(res.patterns, res.counts)` rebuilds `res`, and a
    * filter of both lists rebuilds the run of a subset of its cuisines.
    */
  def assemble(patterns: Seq[PatternMiner.CuisinePatterns], counts: Seq[Authenticity.CuisineCounts]): Results = {
    require(patterns.size >= 3,
      s"need at least three cuisines, got ${patterns.size}: the geography comparison " +
        "cuts the trees at k = 2..min(12, n - 1)")
    require(patterns.map(_.cuisine) == counts.map(_.cuisine), "patterns and counts name different cuisines: " +
      s"${patterns.map(_.cuisine).mkString("[", ", ", "]")} vs ${counts.map(_.cuisine).mkString("[", ", ", "]")}")
    val features = PatternFeatures.fromPatterns(patterns)
    val cuisines = features.cuisines
    val vectors = features.matrix.toSeq

    val fp = Authenticity.fromCounts(counts)
    val trees = ListMap.from(Metrics.map(m => m -> Distance.pdist(vectors, Distance.byName(m))) ++ Seq(
      "authenticity" -> Distance.pdist(fp.matrix.toSeq, Distance.euclidean),
    ) ++ Option.when(cuisines.forall(Regions.coordinates.contains))(
      "geo" -> Regions.distanceMatrix(cuisines),
    )).map { case (name, d) => name -> Hac.cluster(d) }

    val ks = geoCuts(cuisines.size)
    val sims = trees.get("geo").fold(Map.empty[String, Double]) { geo =>
      (trees - "geo").map { case (name, t) => name -> TreeCompare.meanFowlkesMallows(t, geo, ks) }
    }

    Results(cuisines, patterns, counts, features, trees, sims)
  }
}
