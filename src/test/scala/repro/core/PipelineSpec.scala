package repro.core

import repro.SparkSpec
import repro.cluster.KMeans
import repro.recipedb.RecipeGen

class PipelineSpec extends SparkSpec {

  // One full pipeline run at small scale, shared by the assertions below.
  private lazy val res = Pipeline.run(spark, RecipeGen.recipes(spark, 0.02))

  test("pipeline yields all 26 cuisines in sorted order") {
    assert(res.cuisines.size == 26)
    assert(res.cuisines == res.cuisines.sorted)
  }

  test("a pattern tree exists per metric and has 26 leaves") {
    // The order ReproJob prints the trees in and the benchmark names them.
    assert(res.trees.keys.toSeq == Pipeline.Metrics ++ Seq("authenticity", "geo"))
    res.trees.foreach { case (name, t) => assert(t.nLeaves == 26, name) }
  }

  test("feature matrix is binary with one row per cuisine") {
    assert(res.features.matrix.length == 26)
    res.features.matrix.foreach(row => assert(row.forall(v => v == 0.0 || v == 1.0)))
    assert(res.features.patternUniverse.nonEmpty)
  }

  test("geo similarity scores exist for all methods and are in [0, 1]") {
    assert(res.geoSimilarity.keySet == res.trees.keySet - "geo")
    res.geoSimilarity.values.foreach(v => assert(v >= 0.0 && v <= 1.0))
  }

  test("tree accessor resolves metric, authenticity and geo trees") {
    res.trees.foreach { case (name, t) => assert(res.tree(name) eq t, name) }
    val e = intercept[IllegalArgumentException](res.tree("nope"))
    assert(e.getMessage.contains("unknown tree: nope"))
  }

  test("leafIndex resolves cuisines and rejects unknowns") {
    assert(res.cuisines(res.leafIndex("Korean")) == "Korean")
    intercept[IllegalArgumentException](res.leafIndex("Narnia"))
  }

  test("every cuisine has at least one mined pattern") {
    res.patterns.foreach(cp => assert(cp.nPatterns > 0, cp.cuisine))
  }

  test("pattern trees are non-degenerate (not a single chain of zero heights)") {
    Pipeline.Metrics.foreach { m =>
      assert(res.trees(m).merges.last.height > 0.0, m)
    }
  }

  test("Fig 1's WCSS is in the results: k = 1..10, no Spark job, computed once") {
    val r = res // reproduce first, so only the elbow is counted
    val (wcss, activity) = sparkActivityOf(r.wcss)
    assert(activity.jobs == 0, activity)
    assert(wcss.map(_._1) == (1 to 10))
    assert(wcss == KMeans.elbow(r.features.matrix, 1 to 10))
    assert(r.wcss eq wcss)
  }

  test("Fig 1's WCSS at SF 0.02, seed 42 keeps its ten values") {
    val expected = Seq(1588.0384615384, 1345.76, 1240.2083333333, 1073.7391304348, 946.0,
      826.9824561404, 823.7777777778, 728.9435897436, 645.0428571429, 575.25)
    assert(res.wcss.map(_._1) == (1 to 10))
    res.wcss.map(_._2).zip(expected).foreach { case (got, want) =>
      assert(math.abs(got - want) <= 1e-9 * want, s"$got vs $want")
    }
  }

  test("East Asian cuisines are cophenetically close in the authenticity tree") {
    val t = res.trees("authenticity")
    val jp = res.leafIndex("Japanese")
    val kr = res.leafIndex("Korean")
    val fr = res.leafIndex("French")
    assert(t.cophenetic(jp, kr) < t.cophenetic(jp, fr))
  }

  test("run rejects fewer than three cuisines before any clustering") {
    import spark.implicits._
    val two = RecipeGen.recipes(spark, 0.01).filter($"cuisine".isin("Japanese", "Korean"))
    val e = intercept[IllegalArgumentException](Pipeline.run(spark, two))
    assert(e.getMessage.contains("need at least three cuisines, got 2"), e.getMessage)
    assert(e.getMessage.contains("k = 2..min(12, n - 1)"), e.getMessage)
  }
}
