package repro.fpm

import repro.SparkSpec

class AprioriSpec extends SparkSpec {

  import spark.implicits._

  private val small = Seq(
    Seq("a", "b", "c"),
    Seq("a", "b"),
    Seq("b", "c"),
    Seq("a", "c"),
    Seq("a"),
  )

  test("matches brute force on a fixed example") {
    val got = Apriori.mine(small.toDS(), 0.4)
    assert(Itemsets.diff(got, BruteForce.mine(small, 0.4)).isEmpty)
  }

  test("matches FP-Growth across support levels") {
    Seq(0.2, 0.4, 0.6, 0.8).foreach { s =>
      val ap = Apriori.mine(small.toDS(), s)
      val fp = FPGrowth.mineLocal(small, s)
      assert(Itemsets.diff(ap, fp).isEmpty, s"support $s")
    }
  }

  test("matches brute force on randomized inputs") {
    val rnd = new scala.util.Random(5150)
    (1 to 8).foreach { rep =>
      val alphabet = ('a' to ('a' + 1 + rnd.nextInt(6)).toChar).map(_.toString)
      val tx: Seq[Seq[String]] = Seq.fill(2 + rnd.nextInt(30)) {
        rnd.shuffle(alphabet).take(rnd.nextInt(alphabet.size + 1)).toSeq
      }
      val minSup = 0.2 + rnd.nextDouble() * 0.6
      val got = Apriori.mine(tx.toDS(), minSup)
      assert(Itemsets.diff(got, BruteForce.mine(tx, minSup)).isEmpty, s"rep $rep")
    }
  }

  test("handles multi-word item names") {
    val tx = Seq(
      Seq("soy sauce", "sesame oil"),
      Seq("soy sauce", "sesame oil"),
      Seq("soy sauce"),
    )
    val got = Apriori.mine(tx.toDS(), 0.5)
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

  test("invalid minSupport is rejected") {
    intercept[IllegalArgumentException](Apriori.mine(small.toDS(), 0.0))
    intercept[IllegalArgumentException](Apriori.mine(small.toDS(), 1.0001))
  }
}
