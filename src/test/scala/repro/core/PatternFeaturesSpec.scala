package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.fpm.FreqItemset

class PatternFeaturesSpec extends AnyFunSuite {

  private def cp(name: String, sets: Seq[Seq[String]]): PatternMiner.CuisinePatterns =
    PatternMiner.CuisinePatterns(name, 100,
      sets.map(s => FreqItemset(s.sorted, 30, 0.3)))

  private def row(f: PatternFeatures.Features, cuisine: String): Array[Double] =
    f.matrix(f.cuisines.indexOf(cuisine))

  test("universe is the sorted union of canonical string patterns") {
    val f = PatternFeatures.fromPatterns(Seq(
      cp("A", Seq(Seq("x"), Seq("y", "x"))),
      cp("B", Seq(Seq("x"), Seq("z"))),
    ))
    assert(f.patternUniverse == IndexedSeq("x", "x + y", "z"))
  }

  test("binary matrix marks each cuisine's patterns") {
    val f = PatternFeatures.fromPatterns(Seq(
      cp("A", Seq(Seq("x"), Seq("y", "x"))),
      cp("B", Seq(Seq("x"), Seq("z"))),
    ))
    assert(row(f, "A").toSeq == Seq(1.0, 1.0, 0.0))
    assert(row(f, "B").toSeq == Seq(1.0, 0.0, 1.0))
  }

  test("pattern order within an itemset does not matter") {
    val f1 = PatternFeatures.fromPatterns(Seq(cp("A", Seq(Seq("a", "b")))))
    val f2 = PatternFeatures.fromPatterns(Seq(cp("A", Seq(Seq("b", "a")))))
    assert(f1.patternUniverse == f2.patternUniverse)
  }

  test("cuisines with identical patterns get identical vectors") {
    val f = PatternFeatures.fromPatterns(Seq(
      cp("A", Seq(Seq("x"), Seq("y"))),
      cp("B", Seq(Seq("y"), Seq("x"))),
    ))
    assert(row(f, "A").toSeq == row(f, "B").toSeq)
  }

  test("empty pattern set yields a zero vector") {
    val f = PatternFeatures.fromPatterns(Seq(
      cp("A", Seq(Seq("x"))),
      cp("B", Seq.empty),
    ))
    assert(row(f, "B").forall(_ == 0.0))
  }

  test("duplicate cuisine rows are rejected") {
    intercept[IllegalArgumentException](
      PatternFeatures.fromPatterns(Seq(cp("A", Seq(Seq("x"))), cp("A", Seq(Seq("y"))))))
  }

  test("row order follows the input order") {
    val f = PatternFeatures.fromPatterns(Seq(cp("B", Seq(Seq("x"))), cp("A", Seq(Seq("x")))))
    assert(f.cuisines == IndexedSeq("B", "A"))
  }
}
