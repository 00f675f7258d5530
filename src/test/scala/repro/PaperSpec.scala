package repro

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import repro.cluster.TreeCorrelation
import repro.core.Pipeline
import repro.geo.Regions
import repro.jobs.{ReproJob, TableIJob}
import repro.recipedb.{CuisineSpecs, RecipeGen}

/** The paper's results at its own scale: one reproduction of uncached
  * RecipeGen data at SF=1 (Table I's recipe counts exactly, seed 42), run and
  * printed as `ReproJob` runs and prints it, then checked against Table I,
  * Fig 1 and the §VII claims. EXPERIMENTS.md cites the values it prints.
  */
class PaperSpec extends SparkSpec {
  import PaperSpec.{activity, res}

  private lazy val rows = TableIJob.rows(res.patterns)

  test("SF=1: one reproduction of all 26 cuisines, printed as ReproJob prints it") {
    println(s"\n=== Paper reproduction (SF=1) ===\n${ReproJob.render(res)}")
    assert(res.cuisines.size == 26)
    assert(rows.map(_.cuisine).distinct.size == 26)
  }

  test("SF=1: the render equals the checked-in golden file byte for byte") {
    val golden = getClass.getResourceAsStream(s"/${PaperSpec.GoldenName}")
    assert(golden != null, s"${PaperSpec.GoldenName} is not on the test classpath")
    val want = try golden.readAllBytes() finally golden.close()
    val got = ReproJob.render(res).getBytes(UTF_8)
    if (!java.util.Arrays.equals(got, want)) {
      val (g, w) = (new String(got, UTF_8).split("\n", -1), new String(want, UTF_8).split("\n", -1))
      val first = g.indices.find(i => i >= w.length || g(i) != w(i)).getOrElse(g.length)
      val shown = (first until math.min(first + 5, math.max(g.length, w.length))).map { i =>
        s"line ${i + 1}:\n  golden: ${w.lift(i).getOrElse("<end of file>")}\n  render: ${g.lift(i).getOrElse("<end of file>")}"
      }
      fail(s"render differs from ${PaperSpec.GoldenName} (${got.length} vs ${want.length} bytes); " +
        s"first differing lines:\n${shown.mkString("\n")}")
    }
  }

  test("on uncached data the only shuffle is RecipeGen's own exchange") {
    // The pass reads the generator's partitioning on cuisine as it is.
    println(s"Spark activity of the reproduction: $activity")
    assert(activity.shuffles == 1, activity)
  }

  test("TABLE I: every named pattern is mined at support >= 0.2") {
    val missing = rows.filter(_.measuredSupport.isEmpty)
    assert(missing.isEmpty,
      s"named patterns not mined: ${missing.map(r => s"${r.cuisine}/${r.namedPattern}")}")
  }

  test("TABLE I: measured supports match the paper within sampling tolerance") {
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

  test("TABLE I: per-cuisine pattern counts correlate with the paper's counts") {
    val perCuisine = rows.distinctBy(_.cuisine)
    val corr = TreeCorrelation.pearson(perCuisine.map(_.paperPatternCount.toDouble).toArray,
      perCuisine.map(_.measuredPatternCount.toDouble).toArray)
    println(f"pattern-count correlation (paper vs measured): $corr%.3f")
    assert(corr > 0.6, f"correlation $corr%.3f too low")
  }

  test("TABLE I: pattern-count extremes have the right shape (N.Africa/India high, Australia low)") {
    val counts = rows.map(r => r.cuisine -> r.measuredPatternCount).toMap
    assert(counts("Northern Africa") > counts("Australian"))
    assert(counts("Indian Subcontinent") > counts("Australian"))
    assert(counts("Indian Subcontinent") > counts("Canadian"))
    assert(counts("Chinese and Mongolian") > counts("Mexican"))
  }

  test("TABLE I: recipe counts match the paper's at SF=1") {
    rows.foreach(r => assert(r.nRecipes == CuisineSpecs.byName(r.cuisine).nRecipes, r.cuisine))
  }

  test("FIG 1: WCSS for k = 1..10 is non-increasing in k") {
    assert(res.wcss.map(_._1) == (1 to 10))
    val ws = res.wcss.map(_._2)
    ws.zip(ws.tail).foreach { case (a, b) => assert(b <= a + 1e-6) }
  }

  test("FIG 1: no sharp elbow appears (the paper's finding)") {
    // A sharp elbow would be one k whose relative WCSS drop dwarfs all
    // later drops. Measure: max single-step relative drop after k=2.
    val ws = res.wcss.map(_._2)
    val drops = ws.zip(ws.tail).map { case (a, b) => if (a == 0) 0.0 else (a - b) / a }
    println(s"relative drops per k: ${drops.map(d => f"$d%.3f").mkString(", ")}")
    assert(drops.drop(1).max < 0.6, s"found an elbow-like drop: $drops")
  }

  PaperSpec.Claims.foreach { case (tree, cuisine, nearer, farther) =>
    test(s"claim (§VII): $cuisine is closer to $nearer than to $farther in the $tree tree") {
      val t = res.trees(tree)
      val Seq(dNear, dFar) =
        Seq(nearer, farther).map(o => t.cophenetic(res.leafIndex(cuisine), res.leafIndex(o)))
      println(f"$tree cophenetic: $cuisine-$nearer $dNear%.3f, $cuisine-$farther $dFar%.3f")
      assert(dNear < dFar)
    }
  }

  test("claim (§VII): East Asian cuisines cluster together (cosine/jaccard pattern trees)") {
    // Euclidean distance on unnormalised binary vectors isolates cuisines
    // with many patterns (Korean/Chinese/Indian/N.Africa merge last), an
    // artifact scipy's euclidean dendrogram shares; the normalised metrics
    // recover the East Asian family cleanly.
    Seq("cosine", "jaccard").foreach { m =>
      val t = res.trees(m)
      val Seq(cn, kr, jp, uk) =
        Seq("Chinese and Mongolian", "Korean", "Japanese", "UK").map(res.leafIndex)
      val eastPairs = Seq(t.cophenetic(cn, kr), t.cophenetic(cn, jp), t.cophenetic(kr, jp))
      assert(eastPairs.max <= t.cophenetic(cn, uk), m)
    }
  }

  test("validation (§VII): similarity to geography is in (0.15, 1] for all methods") {
    res.geoSimilarity.values.foreach(v => assert(v > 0.15 && v <= 1.0))
  }

  test("validation (§VII): euclidean pattern tree is at least as geography-like as jaccard/cosine") {
    val Seq(e, c, j) = Seq("euclidean", "cosine", "jaccard").map(res.geoSimilarity)
    // The paper found euclidean "most similar to the geographical
    // distribution"; allow a small tolerance for tie-level differences.
    assert(e >= math.min(c, j) - 0.02, f"euclid $e%.3f cosine $c%.3f jaccard $j%.3f")
  }

  test("validation (§VII): authenticity clustering is about as geography-like as euclidean pattern HAC") {
    // The paper's wording: authenticity "gave similar yet better results
    // than Euclidean distance-based HAC when validated on geographical
    // distance based clusters" — compare against euclidean specifically.
    val a = res.geoSimilarity("authenticity")
    val e = res.geoSimilarity("euclidean")
    assert(a >= e - 0.05, f"authenticity $a%.3f vs euclidean $e%.3f")
  }

  test("cophenetic correlation between each tree and raw geography distances is printed") {
    val geoD = Regions.distanceMatrix(res.cuisines)
    println("\nCophenetic correlation vs raw geographic distances:")
    (res.trees - "geo").foreach { case (name, t) =>
      println(f"  $name%-14s ${TreeCorrelation.copheneticCorrelation(t, geoD)}%.4f")
    }
  }
}

object PaperSpec {

  /** The SF=1, seed-42 reproduction of uncached RecipeGen data, and what
    * Spark did for it: made once per test JVM, on first read, and shared by
    * every suite that checks a full run or assembles from its parts.
    */
  lazy val (res, activity) =
    SparkSpec.sparkActivityOf(Pipeline.run(SparkSpec.shared, RecipeGen.recipes(SparkSpec.shared, 1.0)))

  /** The test resource that holds `ReproJob.render` of this suite's SF=1,
    * seed-42 reproduction.
    */
  val GoldenName = "reprojob-sf1-seed42.txt"

  /** Rewrites the golden file from a fresh SF=1, seed-42 reproduction. It is
    * run only by hand, from the repository root, when a change is meant to
    * alter the printed output: `sbt "Test/runMain repro.PaperSpec"`.
    */
  def main(args: Array[String]): Unit =
    try {
      val out = Paths.get("src", "test", "resources", GoldenName)
      Files.createDirectories(out.getParent)
      Files.write(out, ReproJob.render(res).getBytes(UTF_8))
      println(s"wrote $out")
    } finally SparkSpec.shared.stop()

  /** §VII: in `tree`, `cuisine` is cophenetically nearer to `nearer` than to `farther`. */
  val Claims: Seq[(String, String, String, String)] = Seq(
    ("euclidean", "Canadian", "French", "US"),
    ("authenticity", "Canadian", "French", "US"),
    ("authenticity", "Indian Subcontinent", "Northern Africa", "Thai"),
    ("authenticity", "Indian Subcontinent", "Northern Africa", "Southeast Asian"),
    ("authenticity", "Japanese", "Korean", "French"),
  )
}
