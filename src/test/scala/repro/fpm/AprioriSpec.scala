package repro.fpm

import org.scalatest.funsuite.AnyFunSuite

class AprioriSpec extends AnyFunSuite {

  test("handles multi-word item names") {
    val tx = Seq(
      Seq("soy sauce", "sesame oil"),
      Seq("soy sauce", "sesame oil"),
      Seq("soy sauce"),
    )
    val got = Apriori.mine(tx, 0.5)
    val pair = got.find(_.items.size == 2).get
    assert(pair.items == Seq("sesame oil", "soy sauce"))
    assert(pair.freq == 2L)
  }

  test("candidate generation: joins on shared prefix and prunes infrequent subsets") {
    val l2 = Array(
      Vector("a", "b"), Vector("a", "c"), Vector("b", "c"), Vector("b", "d"))
    val c3 = Apriori.generateCandidates(l2).toSet
    // {a,b,c}: subsets ab, ac, bc all present -> kept.
    // {b,c,d}: subset cd missing -> pruned. {a,b,d}: ad missing -> pruned.
    assert(c3 == Set(Vector("a", "b", "c")))
  }

  test("candidate generation from empty level is empty") {
    assert(Apriori.generateCandidates(Array.empty).isEmpty)
  }
}
