package repro.bench

import repro.SparkSpec
import repro.fpm.{Apriori, FPGrowth, Itemsets, MLlibFPGrowth}
import repro.recipedb.RecipeGen

/** Baseline comparison (§II / [1] vs [6]): Spark MLlib's distributed
  * FP-Growth (PFP) against level-wise Apriori on the largest cuisine's
  * transactions — identical outputs required; the median wall-clock of
  * nine repetitions, after a warm-up and in rotating order, reported per
  * support level with its first and third quartiles, so that a difference
  * can be told from host load. Each repetition runs every miner, so the
  * median [q1, q3] of its Apriori/MLlib and mineIds/MLlib time ratios is
  * printed too: load that slows a whole repetition cancels out of a ratio,
  * which makes the ratios, not the seconds, comparable between runs made at
  * different times. `FPGrowth.mineIds`, the in-memory FP-Growth the
  * pipeline runs per cuisine, is timed alongside on the same transactions,
  * collected to the driver and interned to Int ids once, untimed, as the
  * cuisine pass interns them in its read; it must agree too.
  *
  * The paper picked FP-Growth for being "an efficient and scalable method";
  * this bench substantiates that choice on our data.
  *
  * Run with `sbt "Test/runMain repro.bench.MiningPerfBench"`, in a JVM forked
  * with the tests' options; it exits non-zero if two miners disagree.
  */
object MiningPerfBench {

  private val sf = 1.0

  /** Timed repetitions per miner and support level, after one untimed
    * warm-up run of each miner.
    */
  private val reps = 9

  private def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** The q-quantile of `xs`, interpolated linearly between order statistics. */
  private def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    val at = q * (s.size - 1)
    val lo = at.toInt
    s(lo) + (at - lo) * (s(math.min(lo + 1, s.size - 1)) - s(lo))
  }

  /** "median [q1, q3]" of `xs`, with four decimals: mineIds mines Italian in milliseconds. */
  private def spread(xs: Seq[Double]): String = {
    val Seq(m, q1, q3) = Seq(0.5, 0.25, 0.75).map(q => "%.4f".format(quantile(xs, q)))
    s"$m [$q1, $q3]"
  }

  def main(args: Array[String]): Unit = {
    val spark = SparkSpec.shared
    import spark.implicits._
    try {
      val recipes = RecipeGen.recipes(spark, sf)
      val transactions = recipes.filter(recipes("cuisine") === "Italian")
        .select("items").as[Seq[String]].cache()
      val local = transactions.collect()
      val names = local.iterator.flatten.distinct.toArray
      val idOf = names.zipWithIndex.toMap
      val ids = local.map(_.map(idOf).toArray)
      println(s"\n=== Mining baseline comparison (Italian cuisine, SF=$sf, median [q1, q3] of $reps after warm-up) ===")
      println(f"${"support"}%8s ${"mllib-pfp(s)"}%28s ${"apriori(s)"}%28s ${"mineIds(s)"}%28s ${"#itemsets"}%10s")
      val ratioRows = Seq(0.4, 0.3, 0.2).map { s =>
        val miners = IndexedSeq(
          () => time(MLlibFPGrowth.mine(transactions, s)),
          () => time(Apriori.mine(transactions, s)),
          () => time(FPGrowth.mineIds(ids, names, s)),
        )
        miners.foreach(_()) // warm-up, untimed
        // Rotate which miner goes first so none always runs after the others.
        val runs = (0 until reps).map { r =>
          val order = miners.indices.map(i => (i + r) % miners.size)
          order.map(i => i -> miners(i)()).sortBy(_._1).map(_._2)
        }
        val Seq(ml, ap, lo) = runs.last.map(_._1)
        Seq("apriori" -> ap, "mineIds" -> lo).foreach { case (name, other) =>
          val d = Itemsets.diff(ml, other)
          assert(d.isEmpty, s"MLlib and $name differ at support $s: ${d.take(5)}")
        }
        val Seq(tMl, tAp, tLo) = miners.indices.map(i => spread(runs.map(_(i)._2)))
        println(f"$s%8.2f $tMl%28s $tAp%28s $tLo%28s ${ml.size}%10d")
        val Seq(rAp, rLo) = Seq(1, 2).map(i => spread(runs.map(r => r(i)._2 / r(0)._2)))
        f"$s%8.2f $rAp%28s $rLo%28s"
      }
      println(s"\n=== Time ratios to MLlib within each repetition (median [q1, q3] of $reps) ===")
      println(f"${"support"}%8s ${"apriori/mllib"}%28s ${"mineIds/mllib"}%28s")
      ratioRows.foreach(println)
    } finally spark.stop()
  }
}
