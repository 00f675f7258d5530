package repro.fpm

import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._
import scala.util.Random

/** [[FPGrowth.mineLocal]] on hand-computed and edge-case inputs, and every
  * miner against [[BruteForce]]: each row of `Miners` and `Rejections` is one test.
  */
class FPGrowthSpec extends SparkSpec {
  import FPGrowthSpec._

  test("minCountFor uses inclusive ceil semantics") {
    assert(FPGrowth.minCountFor(0.2, 10) == 2L)
    assert(FPGrowth.minCountFor(0.25, 10) == 3L)
    assert(FPGrowth.minCountFor(1.0, 7) == 7L)
    assert(FPGrowth.minCountFor(0.5, 5) == 3L)
  }

  test("classic Han et al. example mines the known frequent itemsets") {
    // Transactions from the FP-Growth paper (minCount 3 of 5), with global
    // frequencies f(4) c(4) a(3) b(3) m(3) p(3).
    val tx = Seq(
      Seq("f", "c", "a", "m", "p"),
      Seq("f", "c", "a", "b", "m"),
      Seq("f", "b"),
      Seq("c", "b", "p"),
      Seq("f", "c", "a", "m", "p"),
    )
    val got = FPGrowth.mineLocal(tx, 0.6).map(fi => fi.items.mkString("") -> fi.freq).toMap
    val expected = Map(
      "f" -> 4L, "c" -> 4L, "a" -> 3L, "b" -> 3L, "m" -> 3L, "p" -> 3L,
      "cf" -> 3L, "ac" -> 3L, "af" -> 3L, "acf" -> 3L, "am" -> 3L, "cm" -> 3L,
      "fm" -> 3L, "acm" -> 3L, "afm" -> 3L, "cfm" -> 3L, "acfm" -> 3L, "cp" -> 3L,
    )
    assert(got == expected)
  }

  test("single transaction yields all its subsets") {
    val got = FPGrowth.mineLocal(Seq(Seq("a", "b", "c")), 1.0)
    // Every non-empty subset of {a,b,c} appears once, with freq 1.
    assert(got.map(_.items.toSet).toSet == Set("a", "b", "c").subsets().filter(_.nonEmpty).toSet)
    assert(got.size == 7)
    assert(got.forall(_.freq == 1L))
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

  test("permuting transactions and the items within them changes nothing") {
    // Metamorphic law: support counts sets of transactions, so neither the
    // order of transactions nor the order (or repetition) of items inside
    // one may change what is mined.
    def freqs(tx: Seq[Seq[String]], minSup: Double): Map[Seq[String], Long] =
      FPGrowth.mineLocal(tx, minSup).map(fi => fi.items -> fi.freq).toMap
    Seeds.foreach { seed =>
      val (tx, minSup) = random(seed)
      val rnd = new Random(-seed) // a stream apart from the generator's
      val permuted = rnd.shuffle(tx).map(rnd.shuffle(_))
      assert(freqs(permuted, minSup) == freqs(tx, minSup), s"seed $seed minSup $minSup")
    }
  }

  test("a transaction of thousands of distinct items is mined whole") {
    val long = (0 until 3000).map(i => f"i$i%04d")
    // Two transactions sharing one item: only that item is in both.
    assert(FPGrowth.mineLocal(Seq(long, Seq("i0000", "other")), 1.0) ==
      Seq(FreqItemset(Seq("i0000"), 2L, 1.0)))
    // With one singleton transaction per item, each of the 3,000 items is
    // frequent (freq 2) and no pair is, so every rank of `long` is kept.
    val tx = long +: long.map(Seq(_))
    val got = FPGrowth.mineLocal(tx, 1.5 / tx.size)
    assert(got.map(fi => fi.items -> fi.freq).toMap == long.map(i => Seq(i) -> 2L).toMap)
  }

  test("mineLocal agrees with brute force where the transaction bitsets split into 64-bit words") {
    // Transaction t is bit t % 64 of word t / 64, so these sizes fill one
    // word exactly, leave one bit over, or end mid-word. Each support makes
    // minCount equal to the exact count of some itemset, so that itemset is
    // frequent by a margin of zero.
    val rnd = new scala.util.Random(6464)
    Seq(1, 63, 64, 65, 127, 128, 129, 200).foreach { n =>
      val alphabet = ('a' to 'h').map(_.toString)
      val tx = Seq.fill(n)(alphabet.filter(_ => rnd.nextDouble() < 0.6))
      val counts = BruteForce.mine(tx, 1.0 / n).map(_.freq).distinct.sorted
      val exact = Seq(counts.head, counts(counts.size / 2), counts.last)
      exact.foreach { c =>
        val minSup = (c - 0.5) / n
        assert(FPGrowth.minCountFor(minSup, n) == c, s"n $n count $c")
        val got = FPGrowth.mineLocal(tx, minSup)
        assert(got.exists(_.freq == c), s"n $n count $c")
        val d = Itemsets.diff(got, BruteForce.mine(tx, minSup))
        assert(d.isEmpty, s"n $n minCount $c: ${d.take(5)}")
      }
    }
  }

  test("ten items in each of 70 transactions give the full lattice of 1,023 itemsets") {
    // Every pattern extension is frequent, so the recursion reaches depth
    // ten, and every level's bitset, two words long, is extended again.
    val items = (0 until 10).map(i => s"i$i")
    val got = FPGrowth.mineLocal(Seq.fill(70)(items), 0.5)
    assert(got.size == 1023)
    assert(got.map(_.items.toSet).toSet == items.toSet.subsets().filter(_.nonEmpty).toSet)
    assert(got.forall(fi => fi.freq == 70L && fi.support == 1.0))
  }

  Miners.foreach { case (name, mine) =>
    test(s"$name agrees with BruteForce on small at supports 0.2-0.8 and on ${Seeds.size} seeded sets") {
      // The 34 inputs are mined concurrently (MLlib's fits are small Spark
      // jobs on the shared session) and checked one by one, in order.
      val smallSupports = Seq(0.2, 0.4, 0.6, 0.8)
      val inputs = smallSupports.map(s => (s"small at $s", small, s)) ++
        Seeds.map { seed => val (tx, s) = random(seed); (s"seed $seed minSupport $s", tx, s) }
      val mined = Await.result(Future.traverse(inputs) { case (_, tx, s) => Future(mine(spark, tx, s)) }, 10.minutes)
      inputs.zip(mined).foreach { case ((input, tx, s), got) =>
        val d = Itemsets.diff(got, BruteForce.mine(tx, s))
        assert(d.isEmpty, s"$input: ${d.take(5)}")
      }
      val longest = mined.drop(smallSupports.size).map(_.map(_.items.size).maxOption.getOrElse(0)).max
      assert(longest >= 4, s"longest mined itemset has $longest items")
    }
  }

  Rejections.foreach { case (name, tx, s, message) =>
    test(s"$name rejects ${tx.size} transactions at minSupport $s with \"$message\"") {
      val e = intercept[IllegalArgumentException](Miners.toMap.apply(name)(spark, tx, s))
      assert(e.getMessage.contains(message), e.getMessage)
    }
  }
}

object FPGrowthSpec {

  /** Five transactions over a, b and c. */
  val small: Seq[Seq[String]] = Seq(Seq("a", "b", "c"), Seq("a", "b"), Seq("b", "c"), Seq("a", "c"), Seq("a"))

  /** The seeds of the sets every miner is checked on. */
  val Seeds: Seq[Long] = 1L to 30L

  /** 1–60 transactions over an alphabet of 2–12 items, some items listed
    * twice in a transaction, and a support in [0.05, 0.9).
    */
  def random(seed: Long): (Seq[Seq[String]], Double) = {
    val rnd = new Random(seed)
    val alphabet = ('a' to ('a' + 1 + rnd.nextInt(11)).toChar).map(_.toString)
    val tx = Seq.fill(1 + rnd.nextInt(60)) {
      val t = rnd.shuffle(alphabet).take(rnd.nextInt(alphabet.size + 1))
      t ++ t.take(rnd.nextInt(3))
    }
    (tx, 0.05 + rnd.nextDouble() * 0.85)
  }

  /** Mines `transactions` at `minSupport`, on the test run's SparkSession. */
  type Miner = (SparkSession, Seq[Seq[String]], Double) => Seq[FreqItemset]

  private def ds(spark: SparkSession, tx: Seq[Seq[String]]) = { import spark.implicits._; tx.toDS() }

  /** Every miner must give `BruteForce.mine`'s itemsets and counts. */
  val Miners: Seq[(String, Miner)] = Seq(
    ("FPGrowth.mineLocal", (_, tx, s) => FPGrowth.mineLocal(tx, s)),
    ("MLlibFPGrowth.mine", (spark, tx, s) => MLlibFPGrowth.mine(ds(spark, tx), s)),
    ("Apriori.mine", (_, tx, s) => Apriori.mine(tx, s)),
  )

  /** (miner, transactions, minSupport, message): the miner rejects them with that message. */
  val Rejections: Seq[(String, Seq[Seq[String]], Double, String)] = Seq(
    ("FPGrowth.mineLocal", small, 0.0, "minSupport 0.0 outside (0,1]"),
    ("FPGrowth.mineLocal", small, -0.1, "minSupport -0.1 outside (0,1]"),
    ("FPGrowth.mineLocal", small, 1.5, "minSupport 1.5 outside (0,1]"),
    ("FPGrowth.mineLocal", Nil, 0.5, "cannot mine an empty transaction set"),
    ("Apriori.mine", small, 0.0, "minSupport 0.0 outside (0,1]"),
    ("Apriori.mine", small, 1.0001, "minSupport 1.0001 outside (0,1]"),
  )
}
