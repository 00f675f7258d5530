package repro.fpm

import org.scalatest.funsuite.AnyFunSuite

/** Property checks for maximal-itemset extraction over randomized mined
  * outputs (`FPGrowthSpec.random`'s sets, mined with the locally
  * brute-force-validated miner).
  */
class MaximalPropertySpec extends AnyFunSuite {

  private def randomMined(seed: Long): Seq[FreqItemset] =
    (FPGrowth.mineLocal _).tupled(FPGrowthSpec.random(seed))

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
      val bySet = mined.map(fi => fi.items.toSet -> fi.support).toMap
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

  /** `Itemsets.maximal(list)` is `list` filtered, by set algebra, to the
    * itemsets with no strict superset in it.
    */
  private def assertMaximalLaw(list: Seq[FreqItemset], seed: Long): Unit = {
    val expected = list.filter { fi =>
      val s = fi.items.toSet
      !list.exists { o => val t = o.items.toSet; s.subsetOf(t) && !t.subsetOf(s) }
    }
    assert(Itemsets.maximal(list) == expected, s"seed $seed")
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
      assertMaximalLaw(list, seed)
    }
  }

  test("maximal keeps exactly the listed itemsets with no strict superset, over 80 items") {
    // More than 64 distinct items, so the masks span two words. Each set is
    // drawn whole, or is an earlier set with up to three items taken out and
    // up to two put in, so that strict subsets, and near misses that differ
    // only in items of the second word, are common.
    val alphabet = (0 until 80).map(i => f"i$i%02d")
    (1 to 100).foreach { seed =>
      val rnd = new scala.util.Random(seed)
      val distinct = (0 until rnd.nextInt(30)).foldLeft(Vector.empty[FreqItemset]) { (acc, _) =>
        val items =
          if (acc.isEmpty || rnd.nextInt(3) == 0) rnd.shuffle(alphabet).take(rnd.nextInt(alphabet.size + 1))
          else (rnd.shuffle(acc(rnd.nextInt(acc.size)).items).drop(rnd.nextInt(4)) ++
            rnd.shuffle(alphabet).take(rnd.nextInt(3))).distinct
        acc :+ FreqItemset(items, 1L + rnd.nextInt(9), rnd.nextDouble())
      }
      val list = rnd.shuffle(distinct ++ distinct.filter(_ => rnd.nextBoolean()))
      assertMaximalLaw(list, seed)
    }
  }
}
