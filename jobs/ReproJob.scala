package repro.jobs

import java.io.{FileDescriptor, FileOutputStream, PrintStream}
import java.nio.charset.StandardCharsets.UTF_8
import org.apache.spark.sql.SparkSession
import repro.core.Pipeline
import repro.recipedb.RecipeGen

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
    if (res.geoSimilarity.nonEmpty) {
      val ks = Pipeline.geoCuts(labels.size)
      sb ++= s"== Mean Fowlkes–Mallows similarity vs geography tree (k=${ks.head}..${ks.last}) ==\n"
      res.geoSimilarity.toSeq.sortBy(-_._2).foreach { case (m, v) =>
        sb ++= f"  $m%-14s $v%.4f\n"
      }
    }
    sb.result()
  }

  /** Table I, Fig 1 and Figs 2–6 of one run. */
  def render(res: Pipeline.Results): String =
    Seq(
      "== Table I ==\n" + TableIJob.render(TableIJob.rows(res.patterns)),
      "== Fig 1: k-means elbow ==\n" + renderElbow(res.wcss),
      renderTrees(res),
    ).mkString("\n\n")

  def main(args: Array[String]): Unit = {
    val sf = if (args.nonEmpty) args(0).toDouble else 1.0
    val spark = SparkSession.builder()
      .master(sys.props.getOrElse("spark.master", "local[*]"))
      .appName("repro-job").getOrCreate()
    // UTF-8 whatever the locale: `System.out` would follow it, and a POSIX
    // locale turns the en dash of "Fowlkes–Mallows" into '?'.
    val out = new PrintStream(new FileOutputStream(FileDescriptor.out), true, UTF_8)
    try {
      out.println(render(Pipeline.run(spark, RecipeGen.recipes(spark, sf))))
    } finally spark.stop()
  }
}
