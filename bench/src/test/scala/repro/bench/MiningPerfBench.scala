package repro.bench

import repro.SparkSpec
import repro.fpm.{Apriori, FPGrowth, Itemsets}
import repro.recipedb.RecipeGen

/** Baseline comparison (§II / [1] vs [6]): distributed FP-Growth against
  * level-wise Apriori on the largest cuisine's transactions — identical
  * outputs required; the median wall-clock of several repetitions, after a
  * warm-up and in alternating order, reported per support level.
  *
  * The paper picked FP-Growth for being "an efficient and scalable method";
  * this bench substantiates that choice on our data.
  */
class MiningPerfBench extends SparkSpec {

  import spark.implicits._

  private val sf = BenchRun.sf

  private lazy val transactions = {
    val recipes = RecipeGen.recipes(spark, sf)
    recipes.filter(recipes("cuisine") === "Italian")
      .select("items").as[Seq[String]].cache()
  }

  /** Timed repetitions per miner and support level, after one untimed
    * warm-up run of each miner.
    */
  private val reps = 5

  private def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  test(s"FP-Growth and Apriori agree and are timed at SF=$sf") {
    println(s"\n=== Mining baseline comparison (Italian cuisine, SF=$sf, median of $reps after warm-up) ===")
    println(f"${"support"}%8s ${"fp-growth(s)"}%13s ${"apriori(s)"}%11s ${"#itemsets"}%10s")
    Seq(0.4, 0.3, 0.2).foreach { s =>
      def runFp() = time(FPGrowth.mine(transactions, s).collect().toSeq)
      def runAp() = time(Apriori.mine(transactions, s))
      runFp(); runAp() // warm-up, untimed
      // Alternate which miner goes first so neither always runs second.
      val runs = (0 until reps).map { r =>
        if (r % 2 == 0) { val f = runFp(); (f, runAp()) }
        else { val a = runAp(); (runFp(), a) }
      }
      val ((fp, _), (ap, _)) = runs.last
      val d = Itemsets.diff(fp, ap)
      assert(d.isEmpty, s"outputs differ at support $s: ${d.take(5)}")
      val tFp = median(runs.map(_._1._2))
      val tAp = median(runs.map(_._2._2))
      println(f"$s%8.2f $tFp%13.2f $tAp%11.2f ${fp.size}%10d")
    }
  }

  test("local (single-tree) FP-Growth agrees with the distributed miner") {
    val tx = transactions.collect().toSeq
    val local = FPGrowth.mineLocal(tx, 0.2)
    val dist = FPGrowth.mine(transactions, 0.2).collect().toSeq
    assert(Itemsets.diff(local, dist).isEmpty)
  }
}
