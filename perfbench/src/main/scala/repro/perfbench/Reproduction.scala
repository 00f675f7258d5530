package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cluster._
import repro.core.{Authenticity, PatternFeatures, PatternMiner, Pipeline}
import repro.core.PatternMiner.CuisinePatterns
import repro.geo.Regions
import repro.jobs.TableIJob

/** What one paper reproduction produces: Table I rows, the Fig 1 elbow
  * (WCSS for k = 1..10), the five trees of Figs 2–6 and the §VII tree
  * similarities. `fingerprints` is only seen when the authenticity layer is
  * called directly (traced runs and the reference).
  */
final case class Output(
    cuisines: IndexedSeq[String],
    patterns: Seq[CuisinePatterns],
    features: PatternFeatures.Features,
    fingerprints: Option[Authenticity.Fingerprints],
    trees: Seq[(String, Dendrogram)],
    geoSimilarity: Map[String, Double],
    wcss: Seq[(Int, Double)],
    tableI: Seq[TableIJob.Row],
)

object Reproduction {

  val ElbowKs: Range = 1 to 10
  val TreeNames: Seq[String] = Pipeline.Metrics ++ Seq("authenticity", "geo")

  /** The timed operation: the public entry points a user of the
    * reproduction calls, in one go.
    */
  def run(spark: SparkSession, recipes: DataFrame): Output = {
    val res = Pipeline.run(spark, recipes)
    val wcss = KMeans.elbow(res.features.matrix, ElbowKs)
    val rows = TableIJob.rows(res.patterns)
    Output(res.cuisines, res.patterns, res.features, None,
      TreeNames.map(n => n -> res.tree(n)), res.geoSimilarity, wcss, rows)
  }

  /** The same reproduction with a span around every module call. It makes
    * the calls `Pipeline.run` makes, in the same order, so each layer can be
    * timed from outside the program; its output passes the same check.
    * Change it together with `Pipeline.run`: a traced run warns when this
    * copy starts a different number of Spark jobs than `run` does.
    */
  def traced(spark: SparkSession, recipes: DataFrame, t: Tracer): Output = {
    val patterns = t.span("PatternMiner") {
      PatternMiner.minePerCuisine(recipes, PatternMiner.PaperMinSupport)
    }
    val features = t.span("PatternFeatures")(PatternFeatures.fromPatterns(patterns))
    val cuisines = features.cuisines
    def tree(vectors: Seq[Array[Double]], metric: Distance.Metric): Dendrogram = {
      val d = t.span("cluster.pdist")(Distance.pdist(vectors, metric))
      t.span("cluster.hac")(Hac.cluster(d, Hac.Average))
    }
    val patternTrees = Pipeline.Metrics.map(m => m -> tree(features.matrix.toSeq, Distance.byName(m)))
    val fp = t.span("Authenticity")(Authenticity.fingerprints(spark, recipes))
    require(fp.cuisines == cuisines, s"cuisine order mismatch: ${fp.cuisines} vs $cuisines")
    val authTree = tree(fp.matrix.toSeq, Distance.euclidean)
    val geoDist = t.span("geo")(Regions.distanceMatrix(cuisines))
    val geoTree = t.span("cluster.hac")(Hac.cluster(geoDist, Hac.Average))
    val ks = 2 to math.min(12, cuisines.size - 1)
    val sims = (patternTrees :+ ("authenticity" -> authTree)).map { case (name, tr) =>
      name -> t.span("cluster.compare")(TreeCompare.meanFowlkesMallows(tr, geoTree, ks))
    }.toMap
    val wcss = t.span("cluster.elbow")(KMeans.elbow(features.matrix, ElbowKs))
    val rows = t.span("TableIJob")(TableIJob.rows(patterns))
    Output(cuisines, patterns, features, Some(fp),
      patternTrees ++ Seq("authenticity" -> authTree, "geo" -> geoTree), sims, wcss, rows)
  }
}
