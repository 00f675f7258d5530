package repro.jobs

import repro.core.PatternMiner
import repro.fpm.Itemsets
import repro.recipedb.CuisineSpecs

/** Table I ("Significant patterns mined from cuisines across
  * the world"): per cuisine, the recipe count, the paper's named pattern(s)
  * with measured support, the measured frequent-pattern count, and our top
  * maximal patterns. `ReproJob` prints it.
  */
object TableIJob {

  /** One reproduced Table I row (named patterns flattened). */
  final case class Row(
      cuisine: String,
      nRecipes: Long,
      namedPattern: String,
      paperSupport: Double,
      measuredSupport: Option[Double],
      paperPatternCount: Int,
      measuredPatternCount: Int,
      topMaximal: String,
  )

  /** Build the reproduced table from mined per-cuisine patterns. */
  def rows(patterns: Seq[PatternMiner.CuisinePatterns]): Seq[Row] = {
    val byName = patterns.map(p => p.cuisine -> p).toMap
    CuisineSpecs.all.flatMap { spec =>
      byName.get(spec.name).toSeq.flatMap { mined =>
        val top = Itemsets.topMaximal(mined.itemsets, 3)
          .map(fi => f"${Itemsets.patternString(fi.items)} (${fi.support}%.2f)")
          .mkString("; ")
        spec.namedPatterns.map { np =>
          Row(spec.name, mined.nRecipes, np.label, np.paperSupport,
            mined.itemsets.collectFirst { case fi if fi.items.forall(np.items) && fi.items.toSet == np.items => fi.support },
            spec.paperPatternCount,
            mined.nPatterns, top)
        }
      }
    }
  }

  def render(rs: Seq[Row]): String = {
    val header =
      f"${"Region"}%-24s ${"#Recipes"}%9s  ${"Named pattern (paper)"}%-34s ${"S.paper"}%7s ${"S.ours"}%7s ${"N.paper"}%7s ${"N.ours"}%7s  Top maximal (ours)"
    val lines = rs.map { r =>
      val s = r.measuredSupport.map(v => f"$v%7.2f").getOrElse("  MISS ")
      f"${r.cuisine}%-24s ${r.nRecipes}%9d  ${r.namedPattern}%-34s ${r.paperSupport}%7.2f $s ${r.paperPatternCount}%7d ${r.measuredPatternCount}%7d  ${r.topMaximal}"
    }
    (header +: lines).mkString("\n")
  }
}
