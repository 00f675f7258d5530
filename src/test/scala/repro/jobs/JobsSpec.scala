package repro.jobs

import repro.{PaperSpec, SparkSpec}
import repro.core.{PatternMiner, Pipeline}
import repro.cluster.KMeans
import repro.fpm.FreqItemset
import repro.recipedb.CuisineSpecs

/** The jobs' pure rendering/aggregation functions, driven by the SF=1,
  * seed-42 reproduction that PaperSpec checks, and by runs assembled from a
  * few of its cuisines: the same code paths `spark-submit` users hit, minus
  * `main`'s session bootstrap. PaperSpec's golden file pins the whole render.
  */
class JobsSpec extends SparkSpec {

  private def mined = PaperSpec.res.patterns

  test("TableIJob.rows produces one row per named pattern in Table I order") {
    val rows = TableIJob.rows(mined)
    val expected = CuisineSpecs.all.flatMap(s => s.namedPatterns.map(_ => s.name))
    assert(rows.map(_.cuisine) == expected)
    assert(rows.size == 33) // 33 named patterns across 26 cuisines
  }

  test("TableIJob.rows carries paper numbers verbatim") {
    val rows = TableIJob.rows(mined)
    val korean = rows.filter(_.cuisine == "Korean")
    assert(korean.map(_.paperSupport).sorted == Seq(0.24, 0.34))
    assert(korean.forall(_.paperPatternCount == 85))
  }

  test("TableIJob.rows looks a named pattern's support up by item set, in any order") {
    val korean = PatternMiner.CuisinePatterns("Korean", 10,
      Seq(FreqItemset(Seq("sesame oil", "soy sauce"), 4, 0.4)))
    val support = TableIJob.rows(Seq(korean)).map(r => r.namedPattern -> r.measuredSupport)
    assert(support == Seq("sesame oil + soy sauce" -> Some(0.4), "green onion + sesame oil" -> None))
  }

  test("TableIJob.render marks unmined patterns as MISS, not by crashing") {
    val rows = Seq(TableIJob.Row("X", 10, "a + b", 0.5, None, 7, 3, "t"))
    assert(TableIJob.render(rows).contains("MISS"))
  }

  /** The run of three cuisines with coordinates, assembled from the shared
    * run's patterns and counts, each cuisine first renamed by `rename`.
    */
  private def three(rename: String => String = identity): Pipeline.Results = {
    val res = PaperSpec.res
    val keep = Set("Italian", "US", "Indian Subcontinent")
    Pipeline.assemble(res.patterns.filter(p => keep(p.cuisine)).map(p => p.copy(cuisine = rename(p.cuisine))),
      res.counts.filter(c => keep(c.cuisine)).map(c => c.copy(cuisine = rename(c.cuisine))))
  }

  private lazy val threeRes = three()

  test("ReproJob.renderTrees heads the Fowlkes–Mallows table with the cuts the comparison used") {
    assert(ReproJob.renderTrees(threeRes).contains("== Mean Fowlkes–Mallows similarity vs geography tree (k=2..2) =="))
  }

  test("ReproJob.render of a three-cuisine run renders Fig 1 for k = 1..3") {
    assert(threeRes.wcss.map(_._1) == (1 to 3))
    assert(ReproJob.render(threeRes).contains(ReproJob.renderElbow(KMeans.elbow(threeRes.features.matrix, 1 to 3))))
  }

  test("ReproJob.renderTrees omits the Fowlkes–Mallows section without a geography tree") {
    val res = three(c => if (c == "US") "Atlantis" else c)
    assert(res.geoSimilarity.isEmpty)
    val out = ReproJob.renderTrees(res)
    assert(out.contains("== HAC (authenticity) =="))
    assert(!out.contains("Fowlkes"))
  }
}
