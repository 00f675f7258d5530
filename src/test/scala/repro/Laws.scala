package repro

import org.scalacheck.{Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.Assertions.assert

/** The one ScalaCheck runner of the suites' laws. */
object Laws {

  /** Asserts `p` on `minSuccessful` generated cases. The initial seed is
    * drawn here and named on failure: the same parameters
    * `.withInitialSeed(Seed.fromBase64(seed).get)` rerun the same cases.
    */
  def check(p: Prop, minSuccessful: Int): Unit = {
    val seed = Seed.random()
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(minSuccessful).withInitialSeed(seed), p)
    assert(res.passed, s"${Pretty.pretty(res)} (initial seed ${seed.toBase64})")
  }
}
