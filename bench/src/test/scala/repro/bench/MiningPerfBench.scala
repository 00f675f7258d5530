package repro.bench

import repro.SparkSpec
import repro.fpm.{Apriori, FPGrowth, Itemsets, MLlibFPGrowth}
import repro.recipedb.RecipeGen

/** Baseline comparison (§II / [1] vs [6]): Spark MLlib's distributed
  * FP-Growth (PFP) against level-wise Apriori on the largest cuisine's
  * transactions — identical outputs required; the median wall-clock of
  * several repetitions, after a warm-up and in rotating order, reported per
  * support level. `FPGrowth.mineLocal`, the in-memory FP-Growth the pipeline
  * runs per cuisine, is timed alongside on the same transactions, collected
  * to the driver, and must agree too.
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

  test(s"MLlib FP-Growth, Apriori and local FP-Growth agree and are timed at SF=$sf") {
    val local = transactions.collect().toSeq
    println(s"\n=== Mining baseline comparison (Italian cuisine, SF=$sf, median of $reps after warm-up) ===")
    println(f"${"support"}%8s ${"mllib-pfp(s)"}%13s ${"apriori(s)"}%11s ${"local(s)"}%9s ${"#itemsets"}%10s")
    Seq(0.4, 0.3, 0.2).foreach { s =>
      val miners = IndexedSeq(
        () => time(MLlibFPGrowth.mine(transactions, s)),
        () => time(Apriori.mine(transactions, s)),
        () => time(FPGrowth.mineLocal(local, s)),
      )
      miners.foreach(_()) // warm-up, untimed
      // Rotate which miner goes first so none always runs after the others.
      val runs = (0 until reps).map { r =>
        val order = miners.indices.map(i => (i + r) % miners.size)
        order.map(i => i -> miners(i)()).sortBy(_._1).map(_._2)
      }
      val Seq(ml, ap, lo) = runs.last.map(_._1)
      Seq("apriori" -> ap, "local" -> lo).foreach { case (name, other) =>
        val d = Itemsets.diff(ml, other)
        assert(d.isEmpty, s"MLlib and $name differ at support $s: ${d.take(5)}")
      }
      val Seq(tMl, tAp, tLo) = miners.indices.map(i => median(runs.map(_(i)._2)))
      println(f"$s%8.2f $tMl%13.2f $tAp%11.2f $tLo%9.2f ${ml.size}%10d")
    }
  }
}
