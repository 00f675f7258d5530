package repro.cluster

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.Laws

class HacSpec extends AnyFunSuite {

  // Euclidean distances between random points, kept only when no two pairs
  // are equidistant, so no merge depends on the tie-break.
  private val tieFreeGen: Gen[DistMatrix] = (for {
    n <- Gen.choose(2, 12)
    dim <- Gen.choose(1, 4)
    pts <- Gen.listOfN(n, Gen.listOfN(dim, Gen.choose(-10.0, 10.0)).map(_.toArray))
  } yield Distance.pdist(pts, Distance.euclidean))
    .suchThat(d => d.condensed.distinct.length == d.condensed.length)

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(a))

  // Four points on a line: 0, 1, 10, 12 — distances are unambiguous.
  private val line = Distance.pdist(
    Seq(Array(0.0), Array(1.0), Array(10.0), Array(12.0)), Distance.euclidean)

  test("average linkage on the line example") {
    val d = Hac.cluster(line)
    assert(d.merges(0) == Merge(0, 1, 1.0, 2))
    assert(d.merges(1) == Merge(2, 3, 2.0, 2))
    // pairs across: (0,2)=10 (0,3)=12 (1,2)=9 (1,3)=11 -> mean 10.5
    assert(math.abs(d.merges(2).height - 10.5) < 1e-9)
  }

  test("heights are monotonically non-decreasing") {
    val rnd = new scala.util.Random(11)
    val pts = Seq.fill(10)(Array.fill(4)(rnd.nextDouble()))
    val hs = Hac.cluster(Distance.pdist(pts, Distance.euclidean)).merges.map(_.height)
    assert(hs.zip(hs.tail).forall { case (a, b) => b >= a - 1e-9 }, hs)
  }

  test("single observation yields an empty dendrogram") {
    val dend = Hac.cluster(DistMatrix(1, Array.empty))
    assert(dend.nLeaves == 1 && dend.merges.isEmpty)
  }

  test("two observations merge at their distance") {
    val dend = Hac.cluster(DistMatrix(2, Array(3.5)))
    assert(dend.merges == Vector(Merge(0, 1, 3.5, 2)))
  }

  test("cut produces the expected flat clusters") {
    val dend = Hac.cluster(line)
    assert(dend.cut(1).distinct.length == 1)
    assert(dend.cut(2).toSeq == Seq(0, 0, 1, 1))
    assert(dend.cut(4).toSeq == Seq(0, 1, 2, 3))
  }

  test("cut validates k") {
    val dend = Hac.cluster(line)
    intercept[IllegalArgumentException](dend.cut(0))
    intercept[IllegalArgumentException](dend.cut(5))
  }

  test("cophenetic distances reflect merge heights") {
    val dend = Hac.cluster(line)
    assert(dend.cophenetic(0, 1) == 1.0)
    assert(dend.cophenetic(2, 3) == 2.0)
    assert(math.abs(dend.cophenetic(0, 3) - 10.5) < 1e-9)
    assert(dend.cophenetic(1, 0) == dend.cophenetic(0, 1))
  }

  test("members tracks leaves through merges") {
    val dend = Hac.cluster(line)
    assert(dend.members(4) == Set(0, 1))
    assert(dend.members(5) == Set(2, 3))
    assert(dend.members(6) == Set(0, 1, 2, 3))
  }

  test("newick renders all leaves exactly once") {
    val dend = Hac.cluster(line)
    val nw = dend.newick(IndexedSeq("w", "x", "y", "z"))
    assert(nw.endsWith(";"))
    Seq("w", "x", "y", "z").foreach(l => assert(nw.contains(l)))
    assert(nw.count(_ == '(') == 3)
  }

  test("ascii rendering mentions every cuisine merge") {
    val dend = Hac.cluster(line)
    val a = dend.ascii(IndexedSeq("w", "x", "y", "z"))
    assert(a.linesIterator.size == 3)
  }

  test("deterministic under permutation-stable input (exact ties)") {
    // four equidistant points: heights all equal, but result is stable
    val d = DistMatrix(4, Array.fill(6)(1.0))
    val a = Hac.cluster(d).merges
    val b = Hac.cluster(d).merges
    assert(a == b)
    assert(a.head == Merge(0, 1, 1.0, 2), "first-index tie break")
  }

  test("permuting the leaves permutes the cophenetic matrix and keeps the merge heights") {
    val gen = for {
      d <- tieFreeGen
      seed <- Gen.long
    } yield (d, new scala.util.Random(seed).shuffle((0 until d.n).toVector))
    Laws.check(Prop.forAll(gen) { case (d, p) =>
      val n = d.n
      val permuted = DistMatrix(n, (for (i <- 0 until n; j <- i + 1 until n) yield d(p(i), p(j))).toArray)
      val a = Hac.cluster(d)
      val b = Hac.cluster(permuted)
      a.merges.map(_.height).zip(b.merges.map(_.height)).forall { case (x, y) => close(x, y) } &&
        (for (i <- 0 until n; j <- i + 1 until n)
          yield close(b.cophenetic(i, j), a.cophenetic(p(i), p(j)))).forall(identity)
    }, 100)
  }

  test("scaling every distance by c > 0 scales every height by c and keeps the merges") {
    val gen = for { d <- tieFreeGen; c <- Gen.choose(0.01, 100.0) } yield (d, c)
    Laws.check(Prop.forAll(gen) { case (d, c) =>
      val a = Hac.cluster(d)
      val b = Hac.cluster(DistMatrix(d.n, d.condensed.map(_ * c)))
      a.merges.map(m => (m.a, m.b, m.size)) == b.merges.map(m => (m.a, m.b, m.size)) &&
        a.merges.zip(b.merges).forall { case (x, y) => close(c * x.height, y.height) }
    }, 100)
  }

  test("every merge joins the active pair with the smallest mean leaf distance, at that mean (UPGMA)") {
    // Brute force over the leaf distances, independent of the Lance–Williams
    // update: the mean is unweighted over leaf pairs, so clusters of
    // different sizes weigh in by size.
    Laws.check(Prop.forAll(tieFreeGen) { d =>
      val dend = Hac.cluster(d)
      def mean(a: Set[Int], b: Set[Int]): Double =
        (for (i <- a.toSeq; j <- b.toSeq) yield d(i, j)).sum / (a.size * b.size)
      var active = (0 until d.n).toVector
      dend.merges.zipWithIndex.forall { case (m, t) =>
        val pairs = for (x <- active.indices; y <- x + 1 until active.size)
          yield (active(x), active(y))
        val (bi, bj) = pairs.minBy { case (i, j) => mean(dend.members(i), dend.members(j)) }
        val expected = mean(dend.members(bi), dend.members(bj))
        active = active.filterNot(id => id == m.a || id == m.b) :+ (d.n + t)
        Set(m.a, m.b) == Set(bi, bj) && close(m.height, expected)
      }
    }, 100)
  }
}
