package repro.fpm

import org.apache.spark.sql.Dataset
import repro.SparkSpec

class FPGrowthSpec extends SparkSpec {

  import spark.implicits._

  private def ds(tx: Seq[Seq[String]]): Dataset[Seq[String]] = tx.toDS()

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

  test("distributed result matches brute force on a fixed example") {
    val got = FPGrowth.mine(ds(small), 0.4).collect().toSeq
    val expected = BruteForce.mine(small, 0.4)
    assert(Itemsets.diff(got, expected).isEmpty)
  }

  test("support values are freq/total") {
    val got = FPGrowth.mine(ds(small), 0.4).collect()
    got.foreach(fi => assert(fi.support == fi.freq.toDouble / small.size))
    val a = got.find(_.items == Seq("a")).get
    assert(a.freq == 4L && a.support == 0.8)
  }

  test("items within an itemset are sorted") {
    val got = FPGrowth.mine(ds(small), 0.4).collect()
    got.foreach(fi => assert(fi.items == fi.items.sorted, fi.toString))
  }

  test("duplicate items within a transaction count once") {
    val tx = Seq(Seq("a", "a", "b"), Seq("a"), Seq("b", "b"))
    val got = FPGrowth.mine(ds(tx), 0.5).collect().toSeq
    val a = got.find(_.items == Seq("a")).get
    assert(a.freq == 2L)
    val b = got.find(_.items == Seq("b")).get
    assert(b.freq == 2L)
  }

  test("empty transactions lower support but are counted in the total") {
    val tx = Seq(Seq("a"), Seq.empty[String], Seq("a"), Seq.empty[String])
    val got = FPGrowth.mine(ds(tx), 0.5).collect().toSeq
    assert(got == Seq(FreqItemset(Seq("a"), 2L, 0.5)))
  }

  test("minSupport 1.0 keeps only universal items") {
    val tx = Seq(Seq("a", "b"), Seq("a"), Seq("a", "c"))
    val got = FPGrowth.mine(ds(tx), 1.0).collect().toSeq
    assert(got == Seq(FreqItemset(Seq("a"), 3L, 1.0)))
  }

  test("no frequent items yields an empty result") {
    val tx = Seq(Seq("a"), Seq("b"), Seq("c"), Seq("d"))
    assert(FPGrowth.mine(ds(tx), 0.5).collect().isEmpty)
  }

  test("invalid minSupport is rejected") {
    intercept[IllegalArgumentException](FPGrowth.mine(ds(small), 0.0))
    intercept[IllegalArgumentException](FPGrowth.mine(ds(small), 1.5))
    intercept[IllegalArgumentException](FPGrowth.mineLocal(small, -0.1))
  }

  test("empty input is rejected") {
    intercept[IllegalArgumentException](FPGrowth.mine(ds(Seq.empty), 0.5).collect())
  }

  test("numGroups does not change the result") {
    val base = BruteForce.mine(small, 0.4)
    Seq(1, 2, 7, 64).foreach { g =>
      val got = FPGrowth.mine(ds(small), 0.4, numGroups = g).collect().toSeq
      assert(Itemsets.diff(got, base).isEmpty, s"numGroups $g")
    }
  }

  test("mineLocal agrees with distributed mine") {
    val got = FPGrowth.mine(ds(small), 0.2).collect().toSeq
    val local = FPGrowth.mineLocal(small, 0.2)
    assert(Itemsets.diff(got, local).isEmpty)
  }

  test("distributed == local == brute force on randomized inputs") {
    val rnd = new scala.util.Random(99)
    (1 to 12).foreach { rep =>
      val alphabet = ('a' to ('a' + 1 + rnd.nextInt(7)).toChar).map(_.toString)
      val tx = Seq.fill(2 + rnd.nextInt(40)) {
        rnd.shuffle(alphabet).take(rnd.nextInt(alphabet.size + 1)).toSeq
      }
      val minSup = 0.15 + rnd.nextDouble() * 0.7
      val dist = FPGrowth.mine(ds(tx), minSup, numGroups = 1 + rnd.nextInt(8)).collect().toSeq
      val brute = BruteForce.mine(tx, minSup)
      assert(Itemsets.diff(dist, brute).isEmpty, s"rep $rep minSup $minSup")
      val local = FPGrowth.mineLocal(tx, minSup)
      assert(Itemsets.diff(local, brute).isEmpty, s"rep $rep (local) minSup $minSup")
    }
  }

  test("matches Spark MLlib's FPGrowth on randomized inputs") {
    import org.apache.spark.ml.fpm.{FPGrowth => MLFPGrowth}
    val rnd = new scala.util.Random(2024)
    (1 to 5).foreach { rep =>
      val alphabet = ('a' to ('a' + 2 + rnd.nextInt(6)).toChar).map(_.toString)
      val tx = Seq.fill(5 + rnd.nextInt(40)) {
        rnd.shuffle(alphabet).take(rnd.nextInt(alphabet.size + 1)).toSeq
      }
      val minSup = 0.2 + rnd.nextDouble() * 0.5
      val ours = FPGrowth.mine(ds(tx), minSup).collect().toSeq
      val mlModel = new MLFPGrowth()
        .setItemsCol("items").setMinSupport(minSup).setMinConfidence(0.5)
        .fit(tx.toDF("items"))
      val theirs = mlModel.freqItemsets.collect().map { r =>
        val items = r.getSeq[String](0).sorted
        val freq = r.getLong(1)
        FreqItemset(items, freq, freq.toDouble / tx.size)
      }.toSeq
      assert(Itemsets.diff(ours, theirs).isEmpty, s"rep $rep minSup $minSup")
    }
  }

  test("handles item universes larger than numGroups") {
    val tx = (0 until 50).map(i => Seq(s"i${i % 10}", s"i${(i + 1) % 10}"))
    val got = FPGrowth.mine(tx.toDS(), 0.1, numGroups = 3).collect().toSeq
    val brute = BruteForce.mine(tx, 0.1)
    assert(Itemsets.diff(got, brute).isEmpty)
  }
}
