package repro.fpm

import org.scalatest.funsuite.AnyFunSuite

class ItemsetsSpec extends AnyFunSuite {

  private def fi(support: Double, items: String*) =
    FreqItemset(items.sorted, (support * 100).round, support)

  test("patternString sorts and joins with ' + '") {
    assert(Itemsets.patternString(Seq("soy sauce", "add")) == "add + soy sauce")
    assert(Itemsets.patternString(Seq("x")) == "x")
    assert(Itemsets.patternString(Nil) == "")
  }

  test("patternString is order-insensitive (the paper's canonicalisation)") {
    assert(Itemsets.patternString(Seq("b", "a", "c")) == Itemsets.patternString(Seq("c", "a", "b")))
  }

  test("maximal drops itemsets with a frequent strict superset") {
    val all = Seq(fi(0.5, "a"), fi(0.4, "b"), fi(0.3, "a", "b"), fi(0.25, "c"))
    val m = Itemsets.maximal(all).map(_.items.toSet).toSet
    assert(m == Set(Set("a", "b"), Set("c")))
  }

  test("maximal of disjoint singletons keeps all") {
    val all = Seq(fi(0.5, "a"), fi(0.4, "b"))
    assert(Itemsets.maximal(all).size == 2)
  }

  test("topMaximal orders by support desc, then size desc, then lexicographically") {
    val all = Seq(
      fi(0.5, "a"), fi(0.5, "b", "c"), fi(0.3, "d"), fi(0.5, "z"),
    )
    val top = Itemsets.topMaximal(all, 3).map(_.items)
    assert(top == Seq(Seq("b", "c"), Seq("a"), Seq("z")))
  }

  test("diff reports missing itemsets and count mismatches symmetrically") {
    val a = Seq(fi(0.5, "a"), fi(0.4, "b"))
    val b = Seq(fi(0.5, "a"), fi(0.3, "c"))
    val d = Itemsets.diff(a, b)
    assert(d.exists(_.contains("only in A: b")))
    assert(d.exists(_.contains("only in B: c")))
    assert(Itemsets.diff(a, a).isEmpty)
    val c = Seq(fi(0.5, "a"), FreqItemset(Seq("b"), 99, 0.4))
    assert(Itemsets.diff(a, c).exists(_.contains("count mismatch")))
  }
}
