package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.cluster.KMeans
import repro.core.Pipeline

/** Regenerates every paper artefact as text from one pipeline run: Table I,
  * the numbers behind Figure 1 (WCSS of k-means on the pattern feature
  * vectors for k = 1..10), the HAC dendrograms over mined patterns
  * (Euclidean / Cosine / Jaccard — Figs 2–4), authenticity (Fig 5) and
  * geography (Fig 6), plus the tree-similarity table quantifying the
  * paper's §VII validation.
  *
  * Usage: spark-submit ... repro.jobs.ReproJob [sf]   (default sf = 1.0)
  */
object ReproJob {

  def renderElbow(wcss: Seq[(Int, Double)]): String =
    ("  k    WCSS" +: wcss.map { case (k, w) => f"$k%3d  $w%10.3f" }).mkString("\n")

  def renderTrees(res: Pipeline.Results): String = {
    val sb = new StringBuilder
    val labels = res.cuisines
    res.trees.foreach { case (name, tree) =>
      val title = name match {
        case "authenticity" => name
        case "geo" => "geography"
        case metric => s"patterns/$metric"
      }
      sb ++= s"== HAC ($title) ==\n"
      sb ++= tree.newick(labels) + "\n"
      sb ++= tree.ascii(labels) + "\n\n"
    }
    sb ++= "== Mean Fowlkes–Mallows similarity vs geography tree (k=2..12) ==\n"
    res.geoSimilarity.toSeq.sortBy(-_._2).foreach { case (m, v) =>
      sb ++= f"  $m%-14s $v%.4f\n"
    }
    sb.result()
  }

  /** Table I, Fig 1 and Figs 2–6 of one run. */
  def render(res: Pipeline.Results): String =
    Seq(
      "== Table I ==\n" + TableIJob.render(TableIJob.rows(res.patterns)),
      "== Fig 1: k-means elbow ==\n" + renderElbow(KMeans.elbow(res.features.matrix, 1 to 10)),
      renderTrees(res),
    ).mkString("\n\n")

  def main(args: Array[String]): Unit = {
    val sf = if (args.nonEmpty) args(0).toDouble else 1.0
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-job").getOrCreate()
    try {
      println(render(Pipeline.runAtScale(spark, sf)))
    } finally spark.stop()
  }
}
