package repro.core

/** The encoder both cuisine representations share: the pattern indicators
  * of §VI.A and the prevalences of §V.B are sparse `key → value` rows, one
  * per cuisine.
  */
private[core] object DenseRows {

  /** The sorted distinct keys of `rows` (the label encoding: a key's column
    * is its index) and one dense row per input row, 0 where it lacks a key.
    */
  def apply(rows: Seq[Iterable[(String, Double)]]): (IndexedSeq[String], Array[Array[Double]]) = {
    val keys = rows.flatMap(_.map(_._1)).distinct.sorted.toIndexedSeq
    val index = keys.zipWithIndex.toMap
    val matrix = rows.map { r =>
      val row = new Array[Double](keys.size)
      r.foreach { case (k, v) => row(index(k)) = v }
      row
    }.toArray
    (keys, matrix)
  }
}
