package repro.fpm

import org.scalatest.funsuite.AnyFunSuite

/** Property checks for maximal-itemset extraction over randomized mined
  * outputs (mined with the locally brute-force-validated miner).
  */
class MaximalPropertySpec extends AnyFunSuite {

  private def randomMined(seed: Long): Seq[FreqItemset] = {
    val rnd = new scala.util.Random(seed)
    val alphabet = ('a' to ('a' + 2 + rnd.nextInt(5)).toChar).map(_.toString)
    val tx: Seq[Seq[String]] = Seq.fill(5 + rnd.nextInt(40)) {
      rnd.shuffle(alphabet).take(rnd.nextInt(alphabet.size + 1)).toSeq
    }
    FPGrowth.mineLocal(tx, 0.15 + rnd.nextDouble() * 0.4)
  }

  test("maximal itemsets have no frequent strict superset (definition)") {
    (1 to 20).foreach { seed =>
      val mined = randomMined(seed)
      val all = mined.map(_.items.toSet).toSet
      val maximal = Itemsets.maximal(mined).map(_.items.toSet)
      maximal.foreach { m =>
        assert(!all.exists(o => m != o && m.subsetOf(o)), s"seed $seed: $m")
      }
    }
  }

  test("every frequent itemset is a subset of some maximal itemset") {
    (1 to 20).foreach { seed =>
      val mined = randomMined(seed)
      val maximal = Itemsets.maximal(mined).map(_.items.toSet)
      mined.foreach { fi =>
        assert(maximal.exists(fi.items.toSet.subsetOf), s"seed $seed: ${fi.items}")
      }
    }
  }

  test("maximal preserves supports") {
    (1 to 10).foreach { seed =>
      val mined = randomMined(seed)
      val bySet = Itemsets.toMap(mined)
      Itemsets.maximal(mined).foreach { fi =>
        assert(bySet(fi.items.toSet) == fi.support)
      }
    }
  }

  test("topMaximal(k) returns at most k results, all maximal, sorted") {
    (1 to 10).foreach { seed =>
      val mined = randomMined(seed)
      val top = Itemsets.topMaximal(mined, 3)
      assert(top.size <= 3)
      val sups = top.map(_.support)
      assert(sups == sups.sorted.reverse, s"seed $seed")
      val maximalSets = Itemsets.maximal(mined).map(_.items.toSet).toSet
      top.foreach(fi => assert(maximalSets.contains(fi.items.toSet)))
    }
  }

  test("maximal keeps exactly the listed itemsets with no strict superset in the list") {
    // Lists that are not downward closed and repeat sets, unlike mined output.
    val alphabet = ('a' to 'f').map(_.toString)
    (1 to 50).foreach { seed =>
      val rnd = new scala.util.Random(seed)
      val distinct = Seq.fill(rnd.nextInt(25)) {
        val items = rnd.shuffle(alphabet).take(rnd.nextInt(alphabet.size + 1))
        FreqItemset(items, 1L + rnd.nextInt(9), rnd.nextDouble())
      }
      val list = rnd.shuffle(distinct ++ distinct.filter(_ => rnd.nextBoolean()))
      val expected = list.filter { fi =>
        val s = fi.items.toSet
        !list.exists { o => val t = o.items.toSet; s.subsetOf(t) && !t.subsetOf(s) }
      }
      assert(Itemsets.maximal(list) == expected, s"seed $seed")
    }
  }
}
