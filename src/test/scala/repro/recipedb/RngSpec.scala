package repro.recipedb

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.Laws

class RngSpec extends AnyFunSuite {

  test("mix64 is deterministic") {
    assert(Rng.mix64(42L) == Rng.mix64(42L))
    assert(Rng.mix64(0L) == Rng.mix64(0L))
  }

  test("mix64 is a bijection on a sample (no collisions over 100k inputs)") {
    val n = 100000
    val seen = (0 until n).map(i => Rng.mix64(i.toLong)).toSet
    assert(seen.size == n)
  }

  test("hash differs when any argument differs") {
    assert(Rng.hash(1, 2, 3) != Rng.hash(1, 2, 4))
    assert(Rng.hash(1, 2, 3) != Rng.hash(1, 3, 3))
    assert(Rng.hash(1, 2, 3) != Rng.hash(2, 2, 3))
  }

  test("uniform is in [0, 1)") {
    Laws.check(Prop.forAll(Gen.long, Gen.long, Gen.long) { (s, r, i) =>
      val u = Rng.uniform(s, r, i)
      u >= 0.0 && u < 1.0
    }, 200)
  }

  test("uniform is deterministic") {
    Laws.check(Prop.forAll(Gen.long, Gen.long, Gen.long) { (s, r, i) =>
      Rng.uniform(s, r, i) == Rng.uniform(s, r, i)
    }, 200)
  }

  test("uniform mean is ~0.5 over many draws") {
    val n = 50000
    val mean = (0 until n).map(i => Rng.uniform(7, i.toLong, 13)).sum / n
    assert(math.abs(mean - 0.5) < 0.01, s"mean $mean")
  }

  test("uniform draws for different item keys are uncorrelated (inclusion independence)") {
    // Empirical joint frequency of two events ~ product of marginals.
    val n = 100000
    val pA = 0.3
    val pB = 0.4
    var a = 0; var b = 0; var ab = 0
    (0 until n).foreach { r =>
      val ia = Rng.uniform(3, r.toLong, 111) < pA
      val ib = Rng.uniform(3, r.toLong, 222) < pB
      if (ia) a += 1
      if (ib) b += 1
      if (ia && ib) ab += 1
    }
    assert(math.abs(a.toDouble / n - pA) < 0.01)
    assert(math.abs(b.toDouble / n - pB) < 0.01)
    assert(math.abs(ab.toDouble / n - pA * pB) < 0.01)
  }

  test("uniformInt respects [0, n) bounds") {
    Laws.check(Prop.forAll(Gen.long, Gen.long, Gen.choose(1, 1000)) { (s, r, n) =>
      val v = Rng.uniformInt(s, r, 5, n)
      v >= 0 && v < n
    }, 200)
  }

  test("uniformInt rejects non-positive n") {
    intercept[IllegalArgumentException](Rng.uniformInt(1, 2, 3, 0))
    intercept[IllegalArgumentException](Rng.uniformInt(1, 2, 3, -5))
  }

  test("uniformInt covers all residues") {
    val n = 7
    val seen = (0 until 1000).map(i => Rng.uniformInt(11, i.toLong, 0, n)).toSet
    assert(seen == (0 until n).toSet)
  }
}
