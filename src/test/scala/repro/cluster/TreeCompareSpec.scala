package repro.cluster

import org.scalatest.funsuite.AnyFunSuite

class TreeCompareSpec extends AnyFunSuite {

  private val line = Distance.pdist(
    Seq(Array(0.0), Array(1.0), Array(10.0), Array(12.0)), Distance.euclidean)
  private val tree = Hac.cluster(line)

  test("pearson of identical arrays is 1") {
    assert(math.abs(TreeCompare.pearson(Array(1.0, 2, 3), Array(1.0, 2, 3)) - 1.0) < 1e-12)
  }

  test("pearson of anti-correlated arrays is -1") {
    assert(math.abs(TreeCompare.pearson(Array(1.0, 2, 3), Array(3.0, 2, 1)) + 1.0) < 1e-12)
  }

  test("pearson is scale and shift invariant") {
    val a = Array(1.0, 5.0, 2.0, 8.0)
    val b = a.map(x => 3 * x + 7)
    assert(math.abs(TreeCompare.pearson(a, b) - 1.0) < 1e-12)
  }

  test("pearson of a constant array is defined as 0") {
    assert(TreeCompare.pearson(Array(1.0, 1.0, 1.0), Array(1.0, 2.0, 3.0)) == 0.0)
  }

  test("cophenetic correlation of a tree with itself is 1") {
    assert(math.abs(TreeCompare.copheneticCorrelation(tree, tree.cophenetic) - 1.0) < 1e-12)
  }

  test("cophenetic correlation with the source distances is high for clean data") {
    // Sokal & Rohlf 1962: Pearson r between the cophenetic distances
    // (1, 10.5, 10.5, 10.5, 10.5, 2) and the distances (1, 10, 12, 9, 11, 2).
    val c = TreeCompare.copheneticCorrelation(tree, line)
    assert(math.abs(c - math.sqrt(217.0 / 227.0)) < 1e-12, c.toString)
    // HAC reproduces an ultrametric input exactly, so r = 1.
    val ultra = DistMatrix(4, Array(1.0, 10.5, 10.5, 10.5, 10.5, 2.0))
    val r = TreeCompare.copheneticCorrelation(Hac.cluster(ultra), ultra)
    assert(math.abs(r - 1.0) < 1e-12, r.toString)
  }

  test("fowlkes-mallows of identical labelings is 1") {
    val l = Array(0, 0, 1, 1, 2)
    assert(TreeCompare.fowlkesMallows(l, l) == 1.0)
  }

  test("fowlkes-mallows of disjoint pairings is 0") {
    // a: {0,1}{2,3}; b: {0,2}{1,3} — no co-clustered pair is shared
    val a = Array(0, 0, 1, 1)
    val b = Array(0, 1, 0, 1)
    assert(TreeCompare.fowlkesMallows(a, b) == 0.0)
  }

  test("fowlkes-mallows known value") {
    // a: {0,1,2}{3}; b: {0,1}{2,3}: Tk=1 (pair 01), Pk=3, Qk=2
    val a = Array(0, 0, 0, 1)
    val b = Array(0, 0, 1, 1)
    assert(math.abs(TreeCompare.fowlkesMallows(a, b) - 1.0 / math.sqrt(6)) < 1e-12)
  }

  test("fowlkes-mallows is symmetric") {
    val a = Array(0, 1, 1, 2, 0)
    val b = Array(1, 1, 0, 0, 2)
    assert(TreeCompare.fowlkesMallows(a, b) == TreeCompare.fowlkesMallows(b, a))
  }

  test("meanFowlkesMallows of a tree with itself is 1 across cuts") {
    assert(TreeCompare.meanFowlkesMallows(tree, tree, 2 to 3) == 1.0)
  }

  test("meanFowlkesMallows rejects an empty set of cuts instead of returning NaN") {
    val e = intercept[IllegalArgumentException](TreeCompare.meanFowlkesMallows(tree, tree, 2 to 1))
    assert(e.getMessage.contains("at least one cut"))
  }

  test("meanFowlkesMallows distinguishes similar from dissimilar trees") {
    // tree2 groups {0,2} vs {1,3} — structurally opposed to `tree`
    val d2 = Distance.pdist(
      Seq(Array(0.0), Array(10.0), Array(1.0), Array(12.0)), Distance.euclidean)
    val tree2 = Hac.cluster(d2)
    val simSelf = TreeCompare.meanFowlkesMallows(tree, tree, 2 to 3)
    val simOther = TreeCompare.meanFowlkesMallows(tree, tree2, 2 to 3)
    assert(simSelf > simOther)
  }

  test("mismatched leaf counts are rejected") {
    val t2 = Hac.cluster(DistMatrix(2, Array(1.0)))
    intercept[IllegalArgumentException](TreeCompare.copheneticCorrelation(tree, t2.cophenetic))
    intercept[IllegalArgumentException](TreeCompare.meanFowlkesMallows(tree, t2, 2 to 2))
    intercept[IllegalArgumentException](
      TreeCompare.fowlkesMallows(Array(0, 1), Array(0, 1, 2)))
  }
}
