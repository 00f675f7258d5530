package repro.core

import repro.{PaperSpec, SparkSpec}
import repro.SparkSpec.sparkActivityOf
import repro.cluster.KMeans

class PipelineSpec extends SparkSpec {

  // The SF=1, seed-42 reproduction that PaperSpec checks, made once per test run.
  private def res = PaperSpec.res

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

  test("assemble rebuilds a run from its patterns and counts, with no Spark job") {
    val (patterns, counts) = (res.patterns, res.counts) // reproduce first, so only assemble is counted
    val (again, activity) = sparkActivityOf(Pipeline.assemble(patterns, counts))
    assert(activity.jobs == 0, activity)
    assert(again.cuisines == res.cuisines && again.trees.keys.toSeq == res.trees.keys.toSeq)
    res.trees.foreach { case (name, t) => assert(again.trees(name).merges == t.merges, name) }
    assert(again.features.patternUniverse == res.features.patternUniverse)
    assert(again.features.matrix.map(_.toSeq).toSeq == res.features.matrix.map(_.toSeq).toSeq)
    assert(again.geoSimilarity == res.geoSimilarity)
    assert(again.wcss == res.wcss)
  }

  test("Fig 1's WCSS is in the results: k = 1..10, no Spark job, computed once") {
    val r = Pipeline.assemble(res.patterns, res.counts) // fresh: the shared run's elbow may be computed
    val (wcss, activity) = sparkActivityOf(r.wcss)
    assert(activity.jobs == 0, activity)
    assert(wcss.map(_._1) == (1 to 10))
    assert(wcss == KMeans.elbow(r.features.matrix, 1 to 10))
    assert(r.wcss eq wcss)
  }

  test("Fig 1's WCSS at SF 1, seed 42 keeps its ten values") {
    val expected = Seq(814.4230769231, 665.5488721805, 589.55, 529.6631578947, 458.5333333333,
      425.2545454545, 365.8, 321.0777777778, 269.875, 233.175)
    assert(res.wcss.map(_._1) == (1 to 10))
    res.wcss.map(_._2).zip(expected).foreach { case (got, want) =>
      assert(math.abs(got - want) <= 1e-9 * want, s"$got vs $want")
    }
  }

  test("assemble rejects fewer than three cuisines before any clustering") {
    val two = Set("Japanese", "Korean")
    val e = intercept[IllegalArgumentException](
      Pipeline.assemble(res.patterns.filter(p => two(p.cuisine)), res.counts.filter(c => two(c.cuisine))))
    assert(e.getMessage.contains("need at least three cuisines, got 2"), e.getMessage)
    assert(e.getMessage.contains("k = 2..min(12, n - 1)"), e.getMessage)
  }

  test("assemble rejects counts of other cuisines or in another order, naming both") {
    def names(cuisines: Seq[String]) = cuisines.mkString("[", ", ", "]")
    Seq(res.counts.reverse, res.counts.tail).foreach { counts =>
      val e = intercept[IllegalArgumentException](Pipeline.assemble(res.patterns, counts))
      assert(e.getMessage.contains(s"patterns and counts name different cuisines: " +
        s"${names(res.cuisines)} vs ${names(counts.map(_.cuisine))}"), e.getMessage)
    }
  }
}
