package repro.core

import repro.fpm.Itemsets

/** §VI.A of the paper: turn per-cuisine mined patterns into feature vectors.
  *
  * Every mined itemset is canonicalised to a sorted "string pattern"; the
  * union of string patterns across cuisines is label-encoded (sorted
  * distinct strings -> indices, exactly what sklearn's LabelEncoder fitted
  * on sorted categories produces); each cuisine becomes a binary indicator
  * vector over the encoded pattern universe.
  */
object PatternFeatures {

  final case class Features(
      cuisines: IndexedSeq[String],          // row order
      patternUniverse: IndexedSeq[String],   // column order = label encoding
      matrix: Array[Array[Double]],          // binary indicators
  )

  def fromPatterns(perCuisine: Seq[PatternMiner.CuisinePatterns]): Features = {
    val cuisines = perCuisine.map(_.cuisine).toIndexedSeq
    require(cuisines.distinct.size == cuisines.size, "duplicate cuisine rows")
    val (universe, matrix) =
      DenseRows(perCuisine.map(_.itemsets.map(fi => Itemsets.patternString(fi.items) -> 1.0)))
    Features(cuisines, universe, matrix)
  }
}
