package repro.recipedb

import repro.fpm.Itemsets
import scala.annotation.tailrec

/** A pattern named in Table I of the paper, with the support it reports. */
final case class NamedPattern(items: Set[String], paperSupport: Double) {
  def label: String = Itemsets.patternString(items)
}

/** Generative spec for one cuisine.
  *
  * @param name              cuisine name exactly as in Table I
  * @param nRecipes          recipe count at SF=1 (Table I, authoritative)
  * @param family            latent culinary family (controls filler pool and
  *                          gives geographically close cuisines correlated
  *                          item profiles, which the clustering experiments
  *                          are supposed to recover)
  * @param probs             independent per-recipe inclusion probability of
  *                          every modeled item (baseline ++ overrides ++
  *                          calibrated fillers)
  * @param namedPatterns     Table I's "topmost significant" pattern(s)
  * @param paperPatternCount Table I's "Number of patterns" column
  */
final case class CuisineSpec(
    name: String,
    nRecipes: Long,
    family: String,
    probs: Map[String, Double],
    namedPatterns: Seq[NamedPattern],
    paperPatternCount: Int,
) {
  /** Expected support of an itemset under this spec (independent draws). */
  def expectedSupport(items: Set[String]): Double =
    items.foldLeft(1.0)((acc, i) => acc * probs.getOrElse(i, 0.0))

  /** Recipes at a scale factor; floor of 40 keeps tiny cuisines minable. */
  def nAt(sf: Double): Long = math.max(40L, math.round(nRecipes * sf))
}

/** The 26 cuisine specs, calibrated against Table I.
  *
  * Calibration logic:
  *  - members of each named pattern get probabilities whose product is the
  *    paper's support + 0.01 (margin against sampling noise at the 0.2
  *    mining threshold); generic members (add/heat/salt/oven/...) are fixed
  *    at plausible raised values and the distinctive member absorbs the rest;
  *  - family staples provide cross-cuisine correlation (a few above the 0.2
  *    threshold, several below it — the latter matter only to the
  *    authenticity pipeline, which sees raw prevalence, not mined patterns);
  *  - filler items from the family pool are appended until the analytically
  *    expected number of frequent itemsets at support 0.2 reaches the
  *    paper's per-cuisine pattern count (see [[expectedFrequentItemsets]]).
  */
object CuisineSpecs {

  /** Margin added to Table I supports so sampling noise cannot push a named
    * pattern below the 0.2 mining threshold (Table I rounds to 2dp anyway).
    */
  val Margin = 0.01

  /** The paper's mining threshold (§IV), which the calibration targets:
    * `repro.core.PatternMiner.PaperMinSupport` is this value.
    */
  final val MinSupport = 0.2

  /** The expected frequent itemsets when items are included independently
    * with the given probabilities: every non-empty item subset whose
    * probability product is >= [[MinSupport]], each as a list of its items.
    * DFS over the items sorted by descending probability, with
    * branch-and-bound pruning. The calibration counts them.
    */
  def expectedFrequentItemsets(probs: Map[String, Double]): Seq[List[String]] = {
    val (names, ps) = probs.toArray.filter(_._2 >= MinSupport).sortBy(-_._2).unzip
    var out = List.empty[List[String]]
    def rec(start: Int, prod: Double, itemset: List[String]): Unit = {
      var j = start
      while (j < ps.length && prod * ps(j) >= MinSupport) {
        val next = names(j) :: itemset
        out ::= next
        rec(j + 1, prod * ps(j), next)
        j += 1
      }
    }
    rec(0, 1.0, Nil)
    out
  }

  /** Probability levels the calibrator may assign to a filler item, tried
    * high-to-low. Higher levels interact with raised items (e.g. add=0.8)
    * and can contribute several itemsets at once; 0.24 always contributes
    * exactly one (0.24 × 0.8 = 0.192 < 0.2 — no spec raises an item above
    * 0.8, see require below).
    */
  private val FillerLevels = Seq(0.37, 0.33, 0.29, 0.24)

  /** Append fillers from the family pool until the expected itemset count
    * reaches the paper target (greedy largest-level-that-fits). Stops when
    * even the lowest level overshoots.
    */
  private def calibrate(base: Map[String, Double], family: String, target: Int): Map[String, Double] = {
    @tailrec def grow(probs: Map[String, Double], expected: Int, pool: List[String]): Map[String, Double] =
      pool match {
        case item :: rest if expected < target =>
          FillerLevels.iterator
            .map(l => probs + (item -> l))
            .map(next => next -> expectedFrequentItemsets(next).size)
            .find(_._2 <= target) match {
            case Some((next, nextExpected)) => grow(next, nextExpected, rest)
            case None => probs
          }
        case _ => probs
      }
    grow(base, expectedFrequentItemsets(base).size, Items.fillerPools(family).filterNot(base.contains).toList)
  }

  private def spec(
      name: String,
      nRecipes: Long,
      family: String,
      overrides: Map[String, Double],
      named: Seq[NamedPattern],
      paperCount: Int,
  ): CuisineSpec = {
    val base = Items.baseline ++ overrides
    base.foreach { case (item, p) =>
      require(p > 0 && p <= 0.8, s"$name/$item prob $p outside (0, 0.8]")
    }
    val probs = calibrate(base, family, paperCount)
    val s = CuisineSpec(name, nRecipes, family, probs, named, paperCount)
    named.foreach { np =>
      val exp = s.expectedSupport(np.items)
      require(exp >= MinSupport,
        s"$name named pattern ${np.label} expected support $exp < mining threshold")
    }
    s
  }

  // Solve the distinctive member's probability given fixed generic members.
  private def solve(target: Double, fixed: Double*): Double = {
    val p = (target + Margin) / fixed.product
    require(p > 0 && p <= 0.8, s"solved probability $p out of range")
    p
  }

  /** All 26 cuisines in Table I order. */
  val all: Seq[CuisineSpec] = Seq(
    spec("Australian", 5823, "western-european",
      Map("butter" -> 0.25, "beef" -> 0.22, "cream" -> 0.15, "bacon" -> 0.14, "oven" -> 0.26),
      Seq(NamedPattern(Set("butter"), 0.24)), 29),

    spec("Belgian", 1060, "western-european",
      Map("butter" -> solve(0.24, 0.42), "cream" -> 0.22, "potato" -> 0.25,
          "leek" -> 0.18, "beer" -> 0.15),
      Seq(NamedPattern(Set("butter", "salt"), 0.24)), 51),

    // Canadian's ingredient profile deliberately leans French (butter /
    // cream / wine / shallot) — the paper's §VII highlights that both
    // clustering methods put Canada with France, not the US, reflecting
    // its French colonial history.
    spec("Canadian", 6700, "north-american",
      Map("onion" -> 0.21, "butter" -> 0.34, "cream" -> 0.25, "maple syrup" -> 0.20,
          "white wine" -> 0.18, "shallot" -> 0.15, "thyme" -> 0.18,
          "parsley" -> 0.20, "skillet" -> 0.16),
      Seq(NamedPattern(Set("onion"), 0.20)), 31),

    spec("Caribbean", 3026, "latin-american",
      Map("garlic clove" -> 0.25, "lime" -> 0.22, "thyme" -> 0.20, "rice" -> 0.22,
          "coconut milk" -> 0.15, "scotch bonnet" -> 0.12, "allspice" -> 0.14),
      Seq(NamedPattern(Set("garlic clove"), 0.24)), 32),

    spec("Central American", 460, "latin-american",
      Map("onion" -> 0.31, "cilantro" -> 0.24, "lime" -> 0.20, "corn" -> 0.22,
          "black bean" -> 0.22, "tomato" -> 0.25),
      Seq(NamedPattern(Set("onion"), 0.30)), 38),

    spec("Chinese and Mongolian", 5896, "east-asian",
      Map("add" -> 0.75, "heat" -> 0.70, "soy sauce" -> solve(0.27, 0.75, 0.70),
          "ginger" -> 0.30, "garlic" -> 0.35, "sesame oil" -> 0.25,
          "green onion" -> 0.30, "rice" -> 0.25, "wok" -> 0.25),
      Seq(NamedPattern(Set("soy sauce", "add", "heat"), 0.27)), 88),

    spec("Deutschland", 4323, "western-european",
      Map("onion" -> 0.30, "butter" -> 0.28, "potato" -> 0.30, "mustard" -> 0.18,
          "cream" -> 0.20, "bacon" -> 0.18, "vinegar" -> 0.18),
      Seq(NamedPattern(Set("onion"), 0.29)), 54),

    spec("Eastern European", 2503, "eastern-european",
      Map("cream" -> 0.31, "potato" -> 0.30, "dill" -> 0.25, "cabbage" -> 0.20,
          "paprika" -> 0.22, "sour cream" -> 0.20, "onion" -> 0.30, "butter" -> 0.25),
      Seq(NamedPattern(Set("cream"), 0.30)), 60),

    spec("French", 6381, "western-european",
      Map("skillet" -> 0.22, "butter" -> 0.38, "cream" -> 0.25, "white wine" -> 0.22,
          "shallot" -> 0.20, "thyme" -> 0.20, "parsley" -> 0.22),
      Seq(NamedPattern(Set("skillet"), 0.21)), 60),

    spec("Greek", 4185, "mediterranean",
      Map("olive oil" -> 0.41, "feta" -> 0.22, "oregano" -> 0.25,
          "lemon juice" -> 0.25, "tomato" -> 0.28, "garlic" -> 0.30),
      Seq(NamedPattern(Set("olive oil"), 0.40)), 43),

    spec("Indian Subcontinent", 6464, "spice-belt",
      Map("add" -> 0.80, "heat" -> 0.75, "salt" -> 0.60,
          "onion" -> solve(0.22, 0.80, 0.75, 0.60),
          "cumin" -> 0.33, "turmeric" -> 0.33, "coriander" -> 0.30,
          "ginger" -> 0.30, "garlic" -> 0.35, "garam masala" -> 0.26,
          "chili" -> 0.30),
      Seq(NamedPattern(Set("onion", "add", "heat", "salt"), 0.22)), 119),

    spec("Irish", 2532, "western-european",
      Map("butter" -> 0.33, "potato" -> 0.32, "cabbage" -> 0.18, "cream" -> 0.20,
          "stout" -> 0.10),
      Seq(NamedPattern(Set("butter"), 0.32)), 41),

    spec("Italian", 16582, "mediterranean",
      Map("parmesan cheese" -> 0.32, "olive oil" -> 0.38, "garlic" -> 0.35,
          "tomato" -> 0.30, "basil" -> 0.25, "pasta" -> 0.28, "oregano" -> 0.20),
      Seq(NamedPattern(Set("parmesan cheese"), 0.31)), 63),

    spec("Japanese", 2041, "east-asian",
      Map("soy sauce" -> 0.46, "mirin" -> 0.25, "sake" -> 0.22, "rice" -> 0.30,
          "ginger" -> 0.25, "sesame oil" -> 0.20, "green onion" -> 0.25,
          "dashi" -> 0.18),
      Seq(NamedPattern(Set("soy sauce"), 0.45)), 45),

    spec("Mexican", 14463, "latin-american",
      Map("cilantro" -> 0.26, "lime" -> 0.22, "jalapeno" -> 0.20,
          "corn tortilla" -> 0.20, "cumin" -> 0.22, "onion" -> 0.28),
      Seq(NamedPattern(Set("cilantro"), 0.25)), 33),

    spec("Rest Africa", 2740, "african",
      Map("add" -> 0.70, "heat" -> 0.65, "onion" -> solve(0.20, 0.70, 0.65),
          "tomato" -> 0.30, "chili" -> 0.25, "peanut" -> 0.15, "cumin" -> 0.18),
      Seq(NamedPattern(Set("onion", "add", "heat"), 0.20)), 51),

    spec("South American", 7176, "latin-american",
      Map("onion" -> solve(0.21, 0.42), "cilantro" -> 0.20, "lime" -> 0.18,
          "beef" -> 0.25, "garlic" -> 0.30, "cumin" -> 0.20, "rice" -> 0.22),
      Seq(NamedPattern(Set("onion", "salt"), 0.21)), 62),

    spec("Southeast Asian", 1940, "southeast-asian",
      Map("fish sauce" -> 0.25, "add" -> 0.60, "heat" -> 0.55, "garlic" -> 0.35,
          "lime" -> 0.25, "coconut milk" -> 0.25, "ginger" -> 0.25, "chili" -> 0.30,
          "rice" -> 0.25, "soy sauce" -> 0.22, "lemongrass" -> 0.20,
          "cilantro" -> 0.20),
      Seq(NamedPattern(Set("fish sauce"), 0.24)), 69),

    spec("Spanish and Portuguese", 2844, "mediterranean",
      Map("olive oil" -> 0.32, "garlic" -> 0.35, "paprika" -> 0.25, "tomato" -> 0.30,
          "saffron" -> 0.15, "chorizo" -> 0.18, "parsley" -> 0.22, "lemon" -> 0.20,
          "rice" -> 0.22, "onion" -> 0.30),
      Seq(NamedPattern(Set("olive oil"), 0.31)), 67),

    spec("Thai", 2605, "southeast-asian",
      Map("add" -> 0.72, "heat" -> 0.66, "fish sauce" -> solve(0.23, 0.72, 0.66),
          "lime" -> 0.25, "coconut milk" -> 0.28, "garlic" -> 0.35, "chili" -> 0.30,
          "cilantro" -> 0.25, "lemongrass" -> 0.22, "rice" -> 0.22),
      Seq(NamedPattern(Set("fish sauce", "add", "heat"), 0.23)), 73),

    spec("Korean", 668, "east-asian",
      Map("sesame oil" -> 0.58, "soy sauce" -> solve(0.34, 0.58),
          "green onion" -> solve(0.24, 0.58), "garlic" -> 0.45, "rice" -> 0.25,
          "gochujang" -> 0.22, "sugar" -> 0.35, "sesame seed" -> 0.30),
      Seq(NamedPattern(Set("soy sauce", "sesame oil"), 0.34),
          NamedPattern(Set("green onion", "sesame oil"), 0.24)), 85),

    spec("Middle Eastern", 3905, "mediterranean",
      Map("bowl" -> solve(0.22, 0.42), "lemon juice" -> 0.23, "olive oil" -> 0.30,
          "cumin" -> 0.25, "yogurt" -> 0.20, "tahini" -> 0.15, "parsley" -> 0.22,
          "chickpea" -> 0.18),
      Seq(NamedPattern(Set("salt", "bowl"), 0.22),
          NamedPattern(Set("lemon juice"), 0.22)), 46),

    spec("Northern Africa", 1611, "spice-belt",
      Map("cumin" -> 0.55, "cinnamon" -> solve(0.21, 0.55),
          "olive oil" -> solve(0.22, 0.55), "add" -> 0.60, "heat" -> 0.55,
          "coriander" -> 0.35, "ginger" -> 0.30, "paprika" -> 0.30,
          "onion" -> 0.45, "turmeric" -> 0.25, "saffron" -> 0.15,
          "couscous" -> 0.20, "harissa" -> 0.15),
      Seq(NamedPattern(Set("cumin", "cinnamon"), 0.21),
          NamedPattern(Set("cumin", "olive oil"), 0.22),
          NamedPattern(Set("cumin", "salt"), 0.22)), 134),

    spec("Scandinavian", 2811, "western-european",
      Map("butter" -> solve(0.22, 0.42), "sugar" -> solve(0.21, 0.42),
          "dill" -> 0.22, "potato" -> 0.28, "cream" -> 0.22, "cardamom" -> 0.15),
      Seq(NamedPattern(Set("butter", "salt"), 0.22),
          NamedPattern(Set("salt", "sugar"), 0.21)), 52),

    spec("UK", 4401, "western-european",
      Map("butter" -> 0.38, "oven" -> 0.47, "bake" -> 0.30, "flour" -> 0.30,
          "milk" -> 0.25, "cream" -> 0.20),
      Seq(NamedPattern(Set("butter"), 0.37),
          NamedPattern(Set("oven"), 0.46)), 45),

    spec("US", 5031, "north-american",
      Map("oven" -> 0.75, "bake" -> 0.70, "preheat" -> 0.65,
          "bowl" -> solve(0.22, 0.75, 0.70, 0.65), "onion" -> 0.26,
          "cheddar" -> 0.20, "corn syrup" -> 0.18, "cranberry" -> 0.15,
          "buttermilk" -> 0.15),
      Seq(NamedPattern(Set("bake", "preheat", "oven", "bowl"), 0.22),
          NamedPattern(Set("onion"), 0.25)), 67),
  )

  val byName: Map[String, CuisineSpec] = all.map(s => s.name -> s).toMap

  require(all.size == 26, s"expected 26 cuisines, got ${all.size}")
}
