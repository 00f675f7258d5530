package repro.recipedb

/** Deterministic, partition-independent pseudo-randomness.
  *
  * Recipe generation must be a pure function of (scale factor, seed) so the
  * DuckDB oracle, the miners, and re-runs all see identical data regardless
  * of how Spark partitions the id range. Every random decision is therefore
  * derived by hashing (seed, recipeId, itemKey) with a splitmix64-style
  * finalizer rather than by drawing from a stateful RNG.
  */
object Rng {

  /** splitmix64 finalizer: a strong 64-bit bijective mixer. */
  def mix64(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Combine three 64-bit values into one well-mixed hash. */
  def hash(seed: Long, a: Long, b: Long): Long =
    mix64(mix64(mix64(seed) ^ a) ^ b)

  /** Uniform double in [0, 1) from (seed, recipe, itemKey).
    *
    * Uses the top 53 bits of the hash; stable across JVMs and platforms
    * (String.hashCode used for itemKey is specified by the JLS).
    */
  def uniform(seed: Long, recipe: Long, itemKey: Long): Double =
    (hash(seed, recipe, itemKey) >>> 11) * (1.0 / (1L << 53))

  /** Uniform int in [0, n) from (seed, recipe, itemKey). */
  def uniformInt(seed: Long, recipe: Long, itemKey: Long, n: Int): Int = {
    require(n > 0, s"n must be positive, got $n")
    ((hash(seed, recipe, itemKey) >>> 33) % n).toInt
  }
}
