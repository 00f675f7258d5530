package repro.fpm

import repro.SparkSpec

class FPGrowthSpec extends SparkSpec {

  import spark.implicits._

  private val small = Seq(
    Seq("a", "b", "c"),
    Seq("a", "b"),
    Seq("b", "c"),
    Seq("a", "c"),
    Seq("a"),
  )

  test("minCountFor uses inclusive ceil semantics") {
    assert(FPGrowth.minCountFor(0.2, 10) == 2L)
    assert(FPGrowth.minCountFor(0.25, 10) == 3L)
    assert(FPGrowth.minCountFor(1.0, 7) == 7L)
    assert(FPGrowth.minCountFor(0.5, 5) == 3L)
  }

  test("mineLocal matches brute force on a fixed example") {
    val got = FPGrowth.mineLocal(small, 0.4)
    val expected = BruteForce.mine(small, 0.4)
    assert(Itemsets.diff(got, expected).isEmpty)
  }

  test("support values are freq/total") {
    val got = FPGrowth.mineLocal(small, 0.4)
    got.foreach(fi => assert(fi.support == fi.freq.toDouble / small.size))
    val a = got.find(_.items == Seq("a")).get
    assert(a.freq == 4L && a.support == 0.8)
  }

  test("items within an itemset are sorted") {
    val got = FPGrowth.mineLocal(small, 0.4)
    got.foreach(fi => assert(fi.items == fi.items.sorted, fi.toString))
  }

  test("duplicate items within a transaction count once") {
    val tx = Seq(Seq("a", "a", "b"), Seq("a"), Seq("b", "b"))
    val got = FPGrowth.mineLocal(tx, 0.5)
    val a = got.find(_.items == Seq("a")).get
    assert(a.freq == 2L)
    val b = got.find(_.items == Seq("b")).get
    assert(b.freq == 2L)
  }

  test("empty transactions lower support but are counted in the total") {
    val tx = Seq(Seq("a"), Seq.empty[String], Seq("a"), Seq.empty[String])
    val got = FPGrowth.mineLocal(tx, 0.5)
    assert(got == Seq(FreqItemset(Seq("a"), 2L, 0.5)))
  }

  test("minSupport 1.0 keeps only universal items") {
    val tx = Seq(Seq("a", "b"), Seq("a"), Seq("a", "c"))
    val got = FPGrowth.mineLocal(tx, 1.0)
    assert(got == Seq(FreqItemset(Seq("a"), 3L, 1.0)))
  }

  test("no frequent items yields an empty result") {
    val tx = Seq(Seq("a"), Seq("b"), Seq("c"), Seq("d"))
    assert(FPGrowth.mineLocal(tx, 0.5).isEmpty)
  }

  test("invalid minSupport is rejected") {
    intercept[IllegalArgumentException](FPGrowth.mineLocal(small, 0.0))
    intercept[IllegalArgumentException](FPGrowth.mineLocal(small, 1.5))
    intercept[IllegalArgumentException](FPGrowth.mineLocal(small, -0.1))
  }

  test("empty input is rejected") {
    intercept[IllegalArgumentException](FPGrowth.mineLocal(Seq.empty, 0.5))
  }

  test("distributed == local == brute force on randomized inputs") {
    val rnd = new scala.util.Random(99)
    (1 to 12).foreach { rep =>
      val alphabet = ('a' to ('a' + 1 + rnd.nextInt(7)).toChar).map(_.toString)
      val tx: Seq[Seq[String]] = Seq.fill(2 + rnd.nextInt(40)) {
        rnd.shuffle(alphabet).take(rnd.nextInt(alphabet.size + 1)).toSeq
      }
      val minSup = 0.15 + rnd.nextDouble() * 0.7
      val brute = BruteForce.mine(tx, minSup)
      val dist = MLlibFPGrowth.mine(tx.toDS(), minSup)
      assert(Itemsets.diff(dist, brute).isEmpty, s"rep $rep minSup $minSup")
      val local = FPGrowth.mineLocal(tx, minSup)
      assert(Itemsets.diff(local, brute).isEmpty, s"rep $rep (local) minSup $minSup")
    }
  }

  test("matches Spark MLlib's FPGrowth on randomized inputs") {
    val rnd = new scala.util.Random(2024)
    (1 to 5).foreach { rep =>
      val alphabet = ('a' to ('a' + 2 + rnd.nextInt(6)).toChar).map(_.toString)
      val tx: Seq[Seq[String]] = Seq.fill(5 + rnd.nextInt(40)) {
        rnd.shuffle(alphabet).take(rnd.nextInt(alphabet.size + 1)).toSeq
      }
      val minSup = 0.2 + rnd.nextDouble() * 0.5
      val ours = FPGrowth.mineLocal(tx, minSup)
      val theirs = MLlibFPGrowth.mine(tx.toDS(), minSup)
      assert(Itemsets.diff(ours, theirs).isEmpty, s"rep $rep minSup $minSup")
    }
  }
}
