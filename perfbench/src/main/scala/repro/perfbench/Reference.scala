package repro.perfbench

import org.apache.spark.sql.DataFrame
import repro.cluster.{Dendrogram, DistMatrix, Merge}
import repro.core.{Authenticity, PatternFeatures, PatternMiner, Pipeline}
import repro.core.PatternMiner.CuisinePatterns
import repro.fpm.{FPGrowth, FreqItemset, Itemsets}
import repro.geo.Regions
import repro.jobs.TableIJob
import repro.recipedb.CuisineSpecs
import scala.collection.mutable
import scala.util.Random

/** The expected output of a reproduction, computed once per process outside
  * the timed region by other code than the reproduction runs. Recipes are
  * collected to the driver; each cuisine is mined with the single-tree
  * `FPGrowth.mineLocal` (not the distributed miner the program uses), and
  * the fingerprint matrix is a plain driver-side prevalence count.
  * Features, distances, HAC, k-means, tree similarities and Table I rows come
  * from the bench-side copies below, written to give the same results as the
  * program's driver-side layers did when this benchmark was defined. They do
  * not change when the program does, so a change to `PatternFeatures`,
  * `Distance`, `Hac`, `KMeans`, `TreeCompare` or `TableIJob` that alters a
  * result fails the check. Region coordinates come from `Regions` and the
  * Table I specs from `CuisineSpecs`: both are data, not computation.
  */
object Reference {

  def compute(recipes: DataFrame): Output = {
    val rows = recipes.select("cuisine", "items", "ingredients").collect()
    val byCuisine = rows.groupBy(_.getString(0))
    val cuisines = byCuisine.keys.toIndexedSeq.sorted

    val patterns = cuisines.map { c =>
      val tx = byCuisine(c).map(_.getSeq[String](1)).toSeq
      CuisinePatterns(c, tx.size.toLong, FPGrowth.mineLocal(tx, PatternMiner.PaperMinSupport))
    }
    val features = patternFeatures(patterns)
    val fp = fingerprints(cuisines, byCuisine.map { case (c, rs) => c -> rs.map(_.getSeq[String](2)).toSeq })

    def tree(vectors: Seq[Array[Double]], metric: String): Dendrogram = upgma(pdist(vectors, metric))
    val patternTrees = Pipeline.Metrics.map(m => m -> tree(features.matrix.toSeq, m))
    val authTree = tree(fp.matrix.toSeq, "euclidean")
    val geoTree = upgma(geoDistances(cuisines))
    val ks = 2 to math.min(12, cuisines.size - 1)
    val sims = (patternTrees :+ ("authenticity" -> authTree)).map { case (name, t) =>
      name -> ks.map(k => fowlkesMallows(cut(t, k), cut(geoTree, k))).sum / ks.size
    }.toMap
    Output(cuisines, patterns, features, Some(fp),
      patternTrees ++ Seq("authenticity" -> authTree, "geo" -> geoTree), sims,
      elbow(features.matrix, Reproduction.ElbowKs), tableIRows(patterns))
  }

  /** Relative prevalence p_i^c = P_i^c − (Σ_k P_i^k − P_i^c) / (K − 1) with
    * P_i^c the share of cuisine c's recipes that contain item i.
    */
  def fingerprints(cuisines: IndexedSeq[String],
                   ingredients: Map[String, Seq[Seq[String]]]): Authenticity.Fingerprints = {
    val counts = cuisines.map { c =>
      val n = mutable.Map.empty[String, Long].withDefaultValue(0L)
      ingredients(c).foreach(_.distinct.foreach(i => n(i) += 1))
      n
    }
    val items = counts.flatMap(_.keys).distinct.sorted.toIndexedSeq
    val prev = cuisines.indices.map { ci =>
      val nc = ingredients(cuisines(ci)).size.toDouble
      items.map(i => counts(ci)(i).toDouble / nc).toArray
    }
    val k = cuisines.size.toDouble
    val sums = items.indices.map(j => prev.map(_(j)).sum)
    val rel = prev.map(row => Array.tabulate(items.size)(j => row(j) - (sums(j) - row(j)) / (k - 1)))
    Authenticity.Fingerprints(cuisines, items, rel.toArray)
  }

  private def patternString(items: Iterable[String]): String = items.toSeq.sorted.mkString(" + ")

  /** §VI.A: one binary row per cuisine over the sorted union of its
    * patterns, each written as its sorted items joined by " + ".
    */
  def patternFeatures(patterns: Seq[CuisinePatterns]): PatternFeatures.Features = {
    val sets = patterns.map(_.itemsets.map(fi => patternString(fi.items)).toSet)
    val universe = sets.flatten.distinct.sorted.toIndexedSeq
    val matrix = sets.map(s => universe.map(p => if (s(p)) 1.0 else 0.0).toArray).toArray
    PatternFeatures.Features(patterns.map(_.cuisine).toIndexedSeq, universe, matrix)
  }

  /** Euclidean, cosine (1 − cos; 0 for two zero vectors, 1 for one) and
    * Jaccard over entries > 0.5 (0 for two empty sets).
    */
  def distance(metric: String, a: Array[Double], b: Array[Double]): Double = {
    def dot(x: Array[Double], y: Array[Double]) = x.indices.foldLeft(0.0)((s, i) => s + x(i) * y(i))
    metric match {
      case "euclidean" => math.sqrt(a.indices.foldLeft(0.0) { (s, i) => val d = a(i) - b(i); s + d * d })
      case "cosine" =>
        val (na, nb) = (math.sqrt(dot(a, a)), math.sqrt(dot(b, b)))
        if (na == 0.0 && nb == 0.0) 0.0
        else if (na == 0.0 || nb == 0.0) 1.0
        else 1.0 - math.max(-1.0, math.min(1.0, dot(a, b) / (na * nb)))
      case "jaccard" =>
        val (x, y) = (a.map(_ > 0.5), b.map(_ > 0.5))
        val union = x.indices.count(i => x(i) || y(i))
        if (union == 0) 0.0 else 1.0 - x.indices.count(i => x(i) && y(i)).toDouble / union
    }
  }

  def pdist(vectors: Seq[Array[Double]], metric: String): DistMatrix = {
    val v = vectors.toIndexedSeq
    DistMatrix(v.size, (for (i <- v.indices; j <- i + 1 until v.size) yield distance(metric, v(i), v(j))).toArray)
  }

  /** Haversine great-circle distances in km between the regions' centres. */
  def geoDistances(cuisines: IndexedSeq[String]): DistMatrix = {
    val c = cuisines.map(r => Regions.coordinates(r))
    def km(a: (Double, Double), b: (Double, Double)): Double = {
      val (dLat, dLon) = (math.toRadians(b._1 - a._1), math.toRadians(b._2 - a._2))
      val s = math.pow(math.sin(dLat / 2), 2) +
        math.cos(math.toRadians(a._1)) * math.cos(math.toRadians(b._1)) * math.pow(math.sin(dLon / 2), 2)
      2 * Regions.EarthRadiusKm * math.asin(math.min(1.0, math.sqrt(s)))
    }
    DistMatrix(c.size, (for (i <- c.indices; j <- i + 1 until c.size) yield km(c(i), c(j))).toArray)
  }

  /** Average-linkage (UPGMA) agglomeration with scipy node ids: the closest
    * pair of active clusters merges, the first such pair in ascending id
    * order on ties, and a merged cluster's distance to cluster k is the
    * size-weighted mean of its parts' distances to k.
    */
  def upgma(dist: DistMatrix): Dendrogram = {
    val n = dist.n
    val d = mutable.Map.empty[(Int, Int), Double]
    for (i <- 0 until n; j <- 0 until n if i != j) d((i, j)) = dist(i, j)
    val size = mutable.Map.empty[Int, Int] ++ (0 until n).map(_ -> 1)
    var active = (0 until n).toVector
    val merges = (n until 2 * n - 1).map { id =>
      val pairs = for (x <- active.indices; y <- x + 1 until active.size) yield (active(x), active(y))
      val (i, j) = pairs.reduceLeft((p, q) => if (d(q) < d(p)) q else p)
      val h = d((i, j))
      active = active.filter(k => k != i && k != j)
      active.foreach { k =>
        val v = (size(i) * d((i, k)) + size(j) * d((j, k))) / (size(i) + size(j)).toDouble
        d((id, k)) = v
        d((k, id)) = v
      }
      size(id) = size(i) + size(j)
      active :+= id
      Merge(i, j, h, size(id))
    }
    Dendrogram(n, merges)
  }

  /** Flat cluster label per leaf after the first n − k merges. */
  def cut(t: Dendrogram, k: Int): IndexedSeq[Int] = {
    val label = mutable.Map.empty[Int, Int] ++ (0 until t.nLeaves).map(i => i -> i)
    val leaves = mutable.Map.empty[Int, Seq[Int]] ++ (0 until t.nLeaves).map(i => i -> Seq(i))
    t.merges.take(t.nLeaves - k).zipWithIndex.foreach { case (m, s) =>
      val id = t.nLeaves + s
      leaves(id) = leaves(m.a) ++ leaves(m.b)
      leaves(id).foreach(label(_) = id)
    }
    (0 until t.nLeaves).map(label)
  }

  /** Fowlkes–Mallows index of two flat labelings (0 if either has no pair). */
  def fowlkesMallows(a: IndexedSeq[Int], b: IndexedSeq[Int]): Double = {
    val pairs = for (i <- a.indices; j <- i + 1 until a.size) yield (a(i) == a(j), b(i) == b(j))
    val (t, p, q) = (pairs.count(x => x._1 && x._2), pairs.count(_._1), pairs.count(_._2))
    if (p == 0 || q == 0) 0.0 else t / math.sqrt(p.toDouble * q)
  }

  /** Newick topology with leaf labels ((),;: replaced by _). */
  def newick(t: Dendrogram, labels: IndexedSeq[String]): String = {
    def render(id: Int): String =
      if (id < t.nLeaves) labels(id).replaceAll("[(),;:]", "_")
      else { val m = t.merges(id - t.nLeaves); s"(${render(m.a)},${render(m.b)})" }
    render(2 * t.nLeaves - 2) + ";"
  }

  private def sqDist(a: Array[Double], b: Array[Double]): Double =
    a.indices.foldLeft(0.0) { (s, i) => val d = a(i) - b(i); s + d * d }

  /** Seeded k-means: k-means++ seeding from `Random(seed)`, Lloyd steps until
    * no label changes (at most 100), an empty cluster re-seeded at a random
    * row. Returns the WCSS.
    */
  def kmeansWcss(x: Array[Array[Double]], k: Int, seed: Long): Double = {
    val rnd = new Random(seed)
    val first = x(rnd.nextInt(x.length))
    val seeds = mutable.ArrayBuffer(first)
    val d2 = x.map(sqDist(_, first))
    while (seeds.size < k) {
      val total = d2.sum
      val chosen =
        if (total <= 0) rnd.nextInt(x.length)
        else {
          var r = rnd.nextDouble() * total
          var i = 0
          while (i < x.length - 1 && r > d2(i)) { r -= d2(i); i += 1 }
          i
        }
      seeds += x(chosen)
      x.indices.foreach(i => d2(i) = math.min(d2(i), sqDist(x(i), x(chosen))))
    }
    var centers = seeds.toIndexedSeq
    val labels = Array.fill(x.length)(0)
    var changed = true
    var iter = 0
    while (changed && iter < 100) {
      changed = false
      x.indices.foreach { i =>
        val best = (1 until k).foldLeft(0)((b, c) => if (sqDist(x(i), centers(c)) < sqDist(x(i), centers(b))) c else b)
        if (labels(i) != best) { labels(i) = best; changed = true }
      }
      centers = (0 until k).map { c =>
        val members = x.indices.filter(labels(_) == c)
        if (members.isEmpty) x(rnd.nextInt(x.length))
        else {
          val sum = new Array[Double](x.head.length)
          members.foreach(i => x(i).indices.foreach(j => sum(j) += x(i)(j)))
          sum.map(_ / members.size)
        }
      }
      iter += 1
    }
    x.indices.map(i => sqDist(x(i), centers(labels(i)))).sum
  }

  /** Fig 1: for each k the lowest WCSS of eight restarts, restart r seeded
    * 7 + r · 1000003.
    */
  def elbow(x: Array[Array[Double]], ks: Seq[Int]): Seq[(Int, Double)] =
    ks.map(k => k -> (0 until 8).map(r => kmeansWcss(x, k, 7 + r * 1000003L)).min)

  /** Table I: per spec cuisine and named pattern, the measured support, the
    * pattern count and the three maximal patterns of highest support (then
    * larger, then lexicographically first).
    */
  def tableIRows(patterns: Seq[CuisinePatterns]): Seq[TableIJob.Row] = {
    val byName = patterns.map(p => p.cuisine -> p).toMap
    for {
      spec <- CuisineSpecs.all
      mined <- byName.get(spec.name).toSeq
      np <- spec.namedPatterns
    } yield {
      val sets = mined.itemsets.map(_.items.toSet)
      val maximal = mined.itemsets.filter(fi => !sets.exists(o => o != fi.items.toSet && fi.items.toSet.subsetOf(o)))
      val top = maximal.sortBy(fi => (-fi.support, -fi.items.size, patternString(fi.items))).take(3)
        .map(fi => f"${patternString(fi.items)} (${fi.support}%.2f)").mkString("; ")
      val support = mined.itemsets.collectFirst { case FreqItemset(items, _, s) if items.toSet == np.items => s }
      TableIJob.Row(spec.name, mined.nRecipes, np.label, np.paperSupport, support,
        spec.paperPatternCount, mined.itemsets.size, top)
    }
  }

  /** Differences between `got` and the reference; empty when the output is
    * correct. Itemsets and Table I rows must match exactly, fingerprints (when
    * the output has them) to 1e-12, tree topologies (Newick) exactly, merge
    * heights, WCSS and tree similarities to 1e-9 relative.
    */
  def check(got: Output, ref: Output): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    def close(a: Double, b: Double, tol: Double): Boolean =
      math.abs(a - b) <= tol * math.max(1.0, math.abs(b))
    if (got.cuisines != ref.cuisines) out += s"cuisines differ: ${got.cuisines} vs ${ref.cuisines}"
    else {
      got.patterns.zip(ref.patterns).foreach { case (g, r) =>
        if (g.cuisine != r.cuisine || g.nRecipes != r.nRecipes)
          out += s"pattern rows differ: ${g.cuisine}/${g.nRecipes} vs ${r.cuisine}/${r.nRecipes}"
        val d = Itemsets.diff(g.itemsets, r.itemsets)
        if (d.nonEmpty) out += s"itemsets of ${r.cuisine}: ${d.take(3).mkString("; ")}"
      }
      if (got.patterns.size != ref.patterns.size) out += "pattern row count differs"
      if (got.features.patternUniverse != ref.features.patternUniverse)
        out += s"pattern universe differs: ${got.features.patternUniverse.size} vs ${ref.features.patternUniverse.size}"
      else if (!got.features.matrix.zip(ref.features.matrix).forall { case (a, b) => a.sameElements(b) })
        out += "pattern feature matrix differs"
      for (g <- got.fingerprints; r <- ref.fingerprints) {
        if (g.cuisines != r.cuisines || g.items != r.items) out += "fingerprint axes differ"
        else {
          val maxDiff = g.matrix.zip(r.matrix).map { case (a, b) =>
            a.indices.map(j => math.abs(a(j) - b(j))).max
          }.max
          if (maxDiff > 1e-12) out += s"fingerprints differ by $maxDiff"
        }
      }
      if (got.trees.map(_._1) != ref.trees.map(_._1)) out += "tree names differ"
      got.trees.zip(ref.trees).foreach { case ((name, g), (_, r)) =>
        if (newick(g, got.cuisines) != newick(r, ref.cuisines)) out += s"tree $name: Newick differs"
        else if (!g.merges.zip(r.merges).forall { case (a, b) => close(a.height, b.height, 1e-9) })
          out += s"tree $name: merge heights differ"
      }
      ref.geoSimilarity.foreach { case (m, v) =>
        if (!got.geoSimilarity.get(m).exists(close(_, v, 1e-9))) out += s"similarity $m differs"
      }
      if (got.wcss.map(_._1) != ref.wcss.map(_._1) ||
          !got.wcss.zip(ref.wcss).forall { case (a, b) => close(a._2, b._2, 1e-9) })
        out += s"WCSS differs: ${got.wcss} vs ${ref.wcss}"
      if (got.tableI != ref.tableI) out += "Table I rows differ"
    }
    out.toSeq
  }
}
