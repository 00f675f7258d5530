package repro.bench

import repro.SparkSpec
import repro.jobs.TableIJob
import repro.recipedb.CuisineSpecs

/** Reproduces Table I (the paper's only table): per-cuisine FP-Growth at
  * support 0.2 over the full synthetic RecipeDB.
  *
  * Reads the shared `BenchRun` (SF=1, Table I's recipe counts exactly).
  * Prints the paper-vs-measured table — the run that feeds EXPERIMENTS.md —
  * and asserts the reproduction-shape properties.
  */
class TableIBench extends SparkSpec {

  private val sf = BenchRun.sf

  private lazy val rows = TableIJob.rows(BenchRun.results.patterns)

  test(s"TABLE I: mine all 26 cuisines at SF=$sf and print paper-vs-measured") {
    println(s"\n=== TABLE I reproduction (SF=$sf) ===")
    println(TableIJob.render(rows))
    assert(rows.map(_.cuisine).distinct.size == 26)
  }

  test("every named Table I pattern is mined at support >= 0.2") {
    val missing = rows.filter(_.measuredSupport.isEmpty)
    assert(missing.isEmpty,
      s"named patterns not mined: ${missing.map(r => s"${r.cuisine}/${r.namedPattern}")}")
  }

  test("measured supports match the paper within sampling tolerance") {
    // Generator calibration adds a +0.01 margin on top of the paper value;
    // the residual is binomial sampling noise, so the tolerance scales with
    // 1/sqrt(n) per cuisine (Central American has only 460 recipes).
    rows.foreach { r =>
      r.measuredSupport.foreach { m =>
        val p = r.paperSupport
        val tol = 0.025 + 3.5 * math.sqrt(p * (1 - p) / r.nRecipes)
        assert(math.abs(m - p) <= tol,
          f"${r.cuisine}/${r.namedPattern}: measured $m%.3f vs paper $p%.2f (tol $tol%.3f)")
      }
    }
  }

  test("per-cuisine pattern counts correlate with the paper's counts") {
    val byCuisine = rows.groupBy(_.cuisine).view.mapValues(_.head).toMap
    val pairs = CuisineSpecs.all.map { s =>
      val r = byCuisine(s.name)
      (r.paperPatternCount.toDouble, r.measuredPatternCount.toDouble)
    }
    val corr = repro.cluster.TreeCorrelation.pearson(
      pairs.map(_._1).toArray, pairs.map(_._2).toArray)
    println(f"pattern-count correlation (paper vs measured): $corr%.3f")
    assert(corr > 0.6, f"correlation $corr%.3f too low")
  }

  test("pattern-count extremes have the right shape (N.Africa/India high, Australia low)") {
    val counts = rows.groupBy(_.cuisine).view.mapValues(_.head.measuredPatternCount).toMap
    assert(counts("Northern Africa") > counts("Australian"))
    assert(counts("Indian Subcontinent") > counts("Australian"))
    assert(counts("Indian Subcontinent") > counts("Canadian"))
    assert(counts("Chinese and Mongolian") > counts("Mexican"))
  }

  test("recipe counts match Table I at SF=1") {
    rows.groupBy(_.cuisine).foreach { case (c, rs) =>
      assert(rs.head.nRecipes == CuisineSpecs.byName(c).nRecipes, c)
    }
  }
}
