package repro.cluster

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}

class DistanceSpec extends AnyFunSuite {

  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), p)
    assert(res.passed, res.status.toString)
  }

  private val vecGen: Gen[Array[Double]] =
    Gen.choose(1, 6).flatMap(n => Gen.listOfN(n, Gen.choose(-10.0, 10.0)).map(_.toArray))

  private val pairGen: Gen[(Array[Double], Array[Double])] = for {
    n <- Gen.choose(1, 6)
    a <- Gen.listOfN(n, Gen.choose(-10.0, 10.0))
    b <- Gen.listOfN(n, Gen.choose(-10.0, 10.0))
  } yield (a.toArray, b.toArray)

  test("euclidean known values") {
    assert(Distance.euclidean(Array(0.0, 0.0), Array(3.0, 4.0)) == 5.0)
    assert(Distance.euclidean(Array(1.0), Array(1.0)) == 0.0)
  }

  test("cosine known values") {
    assert(math.abs(Distance.cosine(Array(1.0, 0.0), Array(0.0, 1.0)) - 1.0) < 1e-12)
    assert(math.abs(Distance.cosine(Array(1.0, 1.0), Array(2.0, 2.0))) < 1e-12)
    assert(math.abs(Distance.cosine(Array(1.0, 0.0), Array(-1.0, 0.0)) - 2.0) < 1e-12)
  }

  test("cosine zero-vector conventions") {
    assert(Distance.cosine(Array(0.0, 0.0), Array(0.0, 0.0)) == 0.0)
    assert(Distance.cosine(Array(0.0, 0.0), Array(1.0, 0.0)) == 1.0)
  }

  test("jaccard known values on binary vectors") {
    assert(Distance.jaccard(Array(1.0, 1.0, 0.0), Array(1.0, 0.0, 1.0)) == 1.0 - 1.0 / 3.0)
    assert(Distance.jaccard(Array(1.0, 1.0), Array(1.0, 1.0)) == 0.0)
    assert(Distance.jaccard(Array(0.0, 0.0), Array(0.0, 0.0)) == 0.0)
    assert(Distance.jaccard(Array(1.0, 0.0), Array(0.0, 1.0)) == 1.0)
  }

  test("metrics are symmetric") {
    Seq(Distance.euclidean, Distance.cosine, Distance.jaccard).foreach { m =>
      check(Prop.forAll(pairGen) { case (a, b) =>
        math.abs(m(a, b) - m(b, a)) < 1e-9
      })
    }
  }

  test("metrics are non-negative with zero self-distance") {
    Seq(Distance.euclidean, Distance.cosine, Distance.jaccard).foreach { m =>
      check(Prop.forAll(vecGen) { a => m(a, a) < 1e-9 && m(a, a) >= 0.0 })
      check(Prop.forAll(pairGen) { case (a, b) => m(a, b) >= 0.0 })
    }
  }

  test("euclidean satisfies the triangle inequality") {
    val g = for {
      n <- Gen.choose(1, 5)
      a <- Gen.listOfN(n, Gen.choose(-5.0, 5.0))
      b <- Gen.listOfN(n, Gen.choose(-5.0, 5.0))
      c <- Gen.listOfN(n, Gen.choose(-5.0, 5.0))
    } yield (a.toArray, b.toArray, c.toArray)
    check(Prop.forAll(g) { case (a, b, c) =>
      Distance.euclidean(a, c) <= Distance.euclidean(a, b) + Distance.euclidean(b, c) + 1e-9
    })
  }

  test("dimension mismatch is rejected") {
    intercept[IllegalArgumentException](Distance.euclidean(Array(1.0), Array(1.0, 2.0)))
    intercept[IllegalArgumentException](Distance.jaccard(Array(1.0), Array(1.0, 2.0)))
  }

  test("byName resolves all three metrics and rejects unknowns") {
    assert(Distance.byName("Euclidean") eq Distance.euclidean)
    assert(Distance.byName("cosine") eq Distance.cosine)
    assert(Distance.byName("JACCARD") eq Distance.jaccard)
    intercept[IllegalArgumentException](Distance.byName("manhattan"))
  }

  test("DistMatrix condensed indexing matches the standard layout") {
    val d = DistMatrix(4, Array(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    // layout: (0,1)(0,2)(0,3)(1,2)(1,3)(2,3)
    assert(d(0, 1) == 1.0 && d(0, 2) == 2.0 && d(0, 3) == 3.0)
    assert(d(1, 2) == 4.0 && d(1, 3) == 5.0 && d(2, 3) == 6.0)
    assert(d(3, 1) == 5.0, "symmetric access")
    assert(d(2, 2) == 0.0, "diagonal is zero")
  }

  test("DistMatrix validates condensed length and index bounds") {
    intercept[IllegalArgumentException](DistMatrix(3, Array(1.0)))
    val d = DistMatrix(3, Array(1.0, 2.0, 3.0))
    intercept[IllegalArgumentException](d.idx(0, 3))
    intercept[IllegalArgumentException](d.idx(1, 1))
  }

  test("pdist computes all pairs") {
    val vs = Seq(Array(0.0, 0.0), Array(3.0, 4.0), Array(0.0, 8.0))
    val d = Distance.pdist(vs, Distance.euclidean)
    assert(d(0, 1) == 5.0)
    assert(d(0, 2) == 8.0)
    assert(d(1, 2) == 5.0)
  }
}
