package repro.core

import repro.SparkSpec
import repro.recipedb.RecipeGen

class PipelineSpec extends SparkSpec {

  // One full pipeline run at small scale, shared by the assertions below.
  private lazy val res = Pipeline.runAtScale(spark, 0.02)

  test("pipeline yields all 26 cuisines in sorted order") {
    assert(res.cuisines.size == 26)
    assert(res.cuisines == res.cuisines.sorted)
  }

  test("a pattern tree exists per metric and has 26 leaves") {
    assert(res.patternTrees.keySet == Pipeline.Metrics.toSet)
    res.patternTrees.values.foreach(t => assert(t.nLeaves == 26))
    assert(res.authTree.nLeaves == 26)
    assert(res.geoTree.nLeaves == 26)
  }

  test("feature matrix is binary with one row per cuisine") {
    assert(res.features.matrix.length == 26)
    res.features.matrix.foreach(row => assert(row.forall(v => v == 0.0 || v == 1.0)))
    assert(res.features.patternUniverse.nonEmpty)
  }

  test("geo similarity scores exist for all methods and are in [0, 1]") {
    assert(res.geoSimilarity.keySet ==
      (Pipeline.Metrics :+ "authenticity").toSet)
    res.geoSimilarity.values.foreach(v => assert(v >= 0.0 && v <= 1.0))
  }

  test("tree accessor resolves metric, authenticity and geo trees") {
    assert(res.tree("euclidean") eq res.patternTrees("euclidean"))
    assert(res.tree("authenticity") eq res.authTree)
    assert(res.tree("geo") eq res.geoTree)
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
    res.patternTrees.values.foreach { t =>
      assert(t.merges.last.height > 0.0)
    }
  }

  test("East Asian cuisines are cophenetically close in the authenticity tree") {
    val t = res.authTree
    val jp = res.leafIndex("Japanese")
    val kr = res.leafIndex("Korean")
    val fr = res.leafIndex("French")
    assert(t.copheneticOf(jp, kr) < t.copheneticOf(jp, fr))
  }

  test("run rejects fewer than three cuisines before any clustering") {
    import spark.implicits._
    val two = RecipeGen.recipes(spark, 0.01).filter($"cuisine".isin("Japanese", "Korean"))
    val e = intercept[IllegalArgumentException](Pipeline.run(spark, two))
    assert(e.getMessage.contains("need at least three cuisines, got 2"), e.getMessage)
    assert(e.getMessage.contains("k = 2..min(12, n - 1)"), e.getMessage)
  }
}
