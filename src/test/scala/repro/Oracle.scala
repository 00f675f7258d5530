package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import scala.jdk.CollectionConverters._

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  /** Runs ``sql`` on DuckDB over ``tables`` (every column loaded as
    * VARCHAR) and returns the result's column labels and rows.
    */
  def query(sql: String, tables: (String, DataFrame)*): (Seq[String], Seq[Row]) = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      (dCols, dRows)
    } finally conn.close()
  }

  /** Exploded (recipe id, cuisine, item) pairs of generated recipes — the
    * shape the oracle queries run over (array columns are not comparable).
    */
  def explodedItems(recipes: DataFrame): DataFrame = {
    import org.apache.spark.sql.functions.explode
    recipes.select(recipes("id"), recipes("cuisine"), explode(recipes("items")).as("item"))
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    val (dCols, dRows) = query(sql, tables: _*)
    val sCols = sparkDf.columns.toSeq
    require(
      dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
      s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
    )
    val got = canon(sparkDf.collect().toSeq, sCols)
    val exp = canon(dRows, dCols)
    require(got == exp,
      s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
      s"  first spark-only: ${got.diff(exp).take(3)}\n" +
      s"  first duck-only:  ${exp.diff(got).take(3)}"
    )
  }
}
