package repro.cluster

import org.scalatest.funsuite.AnyFunSuite

class DendrogramSpec extends AnyFunSuite {

  private def randomTree(n: Int, seed: Long): Dendrogram = {
    val rnd = new scala.util.Random(seed)
    val pts = Seq.fill(n)(Array.fill(3)(rnd.nextDouble() * 10))
    Hac.cluster(Distance.pdist(pts, Distance.euclidean))
  }

  test("merge list length and sizes are consistent") {
    val d = randomTree(9, 1)
    assert(d.merges.length == 8)
    assert(d.merges.last.size == 9)
    d.merges.zipWithIndex.foreach { case (m, t) =>
      assert(m.size == d.members(9 + t).size)
    }
  }

  test("members partition correctly at every internal node") {
    val d = randomTree(8, 2)
    d.merges.zipWithIndex.foreach { case (m, t) =>
      val id = 8 + t
      assert(d.members(m.a).intersect(d.members(m.b)).isEmpty)
      assert(d.members(m.a).union(d.members(m.b)) == d.members(id))
    }
    assert(d.members(2 * 8 - 2) == (0 until 8).toSet)
  }

  test("cut(k) yields exactly k clusters for every k") {
    val d = randomTree(10, 3)
    (1 to 10).foreach { k =>
      val labels = d.cut(k)
      assert(labels.distinct.length == k, s"k=$k")
      assert(labels.forall(l => l >= 0 && l < k))
    }
  }

  test("cut labels are canonical (first occurrence order)") {
    val d = randomTree(7, 4)
    val labels = d.cut(3)
    // first-seen labels must be 0, then 1, then 2
    val firstSeen = labels.distinct
    assert(firstSeen.toSeq == (0 until 3))
  }

  test("cuts are hierarchical: k clusters refine k-1 clusters") {
    val d = randomTree(12, 5)
    (2 to 12).foreach { k =>
      val coarse = d.cut(k - 1)
      val fine = d.cut(k)
      // two points in the same fine cluster are in the same coarse cluster
      for (i <- 0 until 12; j <- i + 1 until 12 if fine(i) == fine(j))
        assert(coarse(i) == coarse(j), s"k=$k ($i,$j)")
    }
  }

  test("cophenetic matrix is an ultrametric for monotone linkages") {
    val c = randomTree(9, 6).cophenetic
    for (i <- 0 until 9; j <- i + 1 until 9; k <- 0 until 9 if k != i && k != j) {
      assert(c(i, j) <= math.max(c(i, k), c(j, k)) + 1e-9,
        s"ultrametric violated at ($i,$j,$k)")
    }
  }

  test("newick escapes label metacharacters") {
    val d = Hac.cluster(DistMatrix(2, Array(1.0)))
    val nw = d.newick(IndexedSeq("a(b)", "c,d;e"))
    assert(!nw.dropRight(1).exists(ch => ch == ';'))
    assert(nw == "(a_b_,c_d_e);")
  }

  test("dendrogram construction validates merge count") {
    intercept[IllegalArgumentException](Dendrogram(3, Vector(Merge(0, 1, 1.0, 2))))
  }

  test("a 26-leaf tree (the paper's size) round-trips through all utilities") {
    val d = randomTree(26, 8)
    assert(d.cut(5).distinct.length == 5)
    assert(d.cophenetic.condensed.length == 26 * 25 / 2)
    val labels = IndexedSeq.tabulate(26)(i => s"c$i")
    assert(labels.forall(d.newick(labels).contains))
    assert(d.ascii(labels).linesIterator.size == 25)
  }
}
