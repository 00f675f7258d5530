package repro.fpm

import org.scalatest.funsuite.AnyFunSuite

class FPTreeSpec extends AnyFunSuite {

  test("empty tree extracts nothing") {
    val t = new FPTree[String]
    assert(t.extract(1).isEmpty)
    assert(t.nItems == 0)
  }

  test("add requires positive count") {
    intercept[IllegalArgumentException](new FPTree[String].add(Seq("a"), 0))
    intercept[IllegalArgumentException](new FPTree[String].add(Seq("a"), -1))
  }

  test("single transaction yields all its subsets containing each suffix once") {
    val t = new FPTree[String].add(Seq("a", "b", "c"))
    val got = t.extract(1).map { case (is, c) => (is.sorted, c) }.toSeq.sortBy(_._1.mkString)
    // Every non-empty subset of {a,b,c} appears with count 1.
    assert(got.size == 7)
    assert(got.forall(_._2 == 1L))
  }

  test("itemCount aggregates across transactions") {
    val t = new FPTree[String]
    t.add(Seq("a", "b"))
    t.add(Seq("a"))
    t.add(Seq("b", "a"), 2) // note: unordered use is allowed
    assert(t.itemCount("a") == 4)
    assert(t.itemCount("b") == 3)
    assert(t.itemCount("zz") == 0)
  }

  test("transactions roundtrip: what goes in comes out (as paths with counts)") {
    val t = new FPTree[String]
    t.add(Seq("a", "b", "c"))
    t.add(Seq("a", "b"))
    t.add(Seq("a", "b"))
    val got = t.transactions.toSeq.map { case (is, c) => (is, c) }.sortBy(_._1.mkString)
    assert(got == Seq((List("a", "b"), 2L), (List("a", "b", "c"), 1L)))
  }

  test("classic Han et al. example mines the known frequent itemsets") {
    // Transactions from the FP-Growth paper (minCount 3), items pre-sorted
    // by global frequency: f(4) c(4) a(3) b(3) m(3) p(3).
    val tx = Seq(
      Seq("f", "c", "a", "m", "p"),
      Seq("f", "c", "a", "b", "m"),
      Seq("f", "b"),
      Seq("c", "b", "p"),
      Seq("f", "c", "a", "m", "p"),
    )
    val t = new FPTree[String]
    tx.foreach(t.add(_))
    val got = t.extract(3).map { case (is, c) => (is.sorted.mkString(""), c) }.toMap
    val expected = Map(
      "f" -> 4L, "c" -> 4L, "a" -> 3L, "b" -> 3L, "m" -> 3L, "p" -> 3L,
      "cf" -> 3L, "ac" -> 3L, "af" -> 3L, "acf" -> 3L, "am" -> 3L, "cm" -> 3L,
      "fm" -> 3L, "acm" -> 3L, "afm" -> 3L, "cfm" -> 3L, "acfm" -> 3L, "cp" -> 3L,
    )
    assert(got == expected)
  }

  test("extract agrees with brute force on randomized inputs") {
    val rnd = new scala.util.Random(1234)
    (1 to 30).foreach { rep =>
      val alphabet = ('a' to ('a' + 1 + rnd.nextInt(6)).toChar).map(_.toString)
      val tx = Seq.fill(1 + rnd.nextInt(30)) {
        rnd.shuffle(alphabet).take(rnd.nextInt(alphabet.size + 1)).toSeq
      }
      val minSup = 0.1 + rnd.nextDouble() * 0.8
      val viaTree = FPGrowth.mineLocal(tx, minSup)
      val viaBrute = BruteForce.mine(tx, minSup)
      val d = Itemsets.diff(viaTree, viaBrute)
      assert(d.isEmpty, s"rep $rep minSup $minSup: ${d.take(5)}")
    }
  }
}
