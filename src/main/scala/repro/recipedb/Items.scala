package repro.recipedb

/** Item vocabulary for the synthetic RecipeDB.
  *
  * RecipeDB treats a recipe as an unordered set of ingredients, processes and
  * utensils; the paper concatenates all three before mining. The generator
  * tells ingredients apart from the rest so that the authenticity pipeline
  * (Fig 5 of the paper, "Authenticity of Ingredients") can select
  * ingredients only.
  */
object Items {

  /** Core cooking processes present in every cuisine's baseline. */
  val coreProcesses: Set[String] = Set(
    "add", "heat", "cook", "stir", "mix", "chop", "serve", "boil", "simmer",
    "bake", "preheat", "drain", "slice", "pour", "grate", "whisk", "fry",
    "saute", "marinate", "steam", "grill", "roast", "knead", "blend", "season",
  )

  /** Utensils (RecipeDB has 69; we model the frequent head). */
  val utensils: Set[String] = Set(
    "pan", "pot", "bowl", "oven", "skillet", "knife", "spoon", "baking sheet",
    "wok", "whisk tool", "tray", "grater",
  )

  /** Shared technique vocabulary. Family filler pools slice this list at
    * staggered offsets so that culturally adjacent families share most of
    * their techniques (a gradient the pattern-space clustering can see),
    * while distant families share few.
    */
  private val sharedTechniques: Vector[String] = Vector(
    "braise", "sear", "poach", "glaze", "baste", "fold", "sift", "caramelize",
    "render", "reduce", "score", "rub", "toss", "coat", "dust", "brine",
    "cure", "toast", "crush", "pound", "strain", "soak", "rest", "chill",
    "garnish", "julienne", "mince", "dice", "shred", "scald", "temper",
    "whip", "skewer", "mash", "press", "layer", "stuff", "wilt", "scorch",
    "split",
  )

  private def slice(offset: Int, n: Int): Vector[String] = {
    // wrap around so every family gets a full window
    Vector.tabulate(n)(i => sharedTechniques((offset + i) % sharedTechniques.length))
  }

  /** Per-family filler pools — all PROCESS items.
    *
    * The spec calibrator (see [[CuisineSpecs]]) appends fillers from the
    * cuisine's family pool until the analytically expected frequent-itemset
    * count matches the paper's per-cuisine pattern count. Fillers are
    * processes on purpose: RecipeDB has 268 unique processes, and the
    * authenticity experiment (Fig 5) fingerprints cuisines on *ingredients
    * only*, so pattern-count calibration must not distort the ingredient
    * prevalence space. Family members draw from the same pool in the same
    * order, which makes filler patterns shared family markers in the
    * pattern feature space.
    */
  val fillerPools: Map[String, Vector[String]] = Map(
    "western-european" -> (slice(0, 17) ++ Vector(
      "deglaze", "clarify", "flambe", "proof", "laminate", "carve",
      "gratinate", "blanch", "cream butter", "monter", "chiffonade",
      "bard", "lard", "truss", "ballotine", "en papillote", "sous vide",
      "beurre blanc", "roux", "velout", "confit", "terrine", "galantine")),
    "north-american"   -> (slice(2, 17) ++ Vector(
      "barbecue", "griddle", "deep fry", "batter", "frost", "cream butter",
      "blanch", "carve", "smoke low", "spatchcock", "tailgate grill",
      "pressure cook", "slow cook", "broil", "toast bun", "flip",
      "candy", "brown butter", "crimp", "par bake", "proof", "ice",
      "streusel")),
    "eastern-european" -> (slice(5, 17) ++ Vector(
      "pickle", "ferment", "smoke cold", "stuff cabbage", "roll dough",
      "boil dumpling", "sour", "render fat", "braise slow", "pot roast",
      "dill cure", "salt cure", "grate beet", "simmer broth", "strain curd",
      "press curd", "dry herbs", "crack groats", "steep", "clot cream",
      "mold aspic", "jelly", "soak grain")),
    "mediterranean"    -> (slice(8, 17) ++ Vector(
      "char-grill", "drizzle", "zest", "pit", "emulsify", "sun-dry",
      "stuff leaves", "layer phyllo", "brush oil", "crumble cheese",
      "pound paste", "slow braise", "salt fish", "cure olive", "grind nut",
      "roll vine leaf", "toast spice", "scent lemon", "split pod",
      "steep saffron", "press oil", "knead dough", "shape gnocchi")),
    "latin-american"   -> (slice(11, 17) ++ Vector(
      "nixtamalize", "press tortilla", "char pepper", "refry", "steam husk",
      "wrap husk", "grind masa", "squeeze lime", "smash avocado",
      "toast chili", "soak bean", "griddle comal", "shred meat",
      "slow roast pit", "salsa grind", "pickle onion", "fry plantain",
      "scrape yuca", "stew mole", "froth chocolate", "pat arepa",
      "cure ceviche", "crisp chicharron")),
    "african"          -> (slice(14, 17) ++ Vector(
      "pound yam", "stew groundnut", "ferment dough", "sun dry fish",
      "grind grain", "palm press", "wrap leaf", "smoke fish", "char roast",
      "steam couscous", "spice blend", "clay pot stew", "roast plantain",
      "soak cassava", "grate tuber", "boil porridge", "toast seed",
      "mash bean", "braise goat", "dry pepper", "crack millet",
      "steep hibiscus", "fry akara")),
    "spice-belt"       -> (slice(17, 17) ++ Vector(
      "temper spices", "dry roast", "grind masala", "slow simmer dal",
      "bloom spices", "tandoor", "knead atta", "ferment batter",
      "steam idli", "clarify ghee", "smoke dum", "braise korma",
      "toast cumin", "crackle mustard seed", "stir khoya", "reduce milk",
      "soak rice", "pound chutney", "layer biryani", "seal dough",
      "fry pakora", "roll roti", "char naan")),
    "southeast-asian"  -> (slice(20, 17) ++ Vector(
      "pound paste", "wok toss", "flash fry", "steam banana leaf",
      "grill satay", "balance sauce", "bruise lemongrass", "tear herbs",
      "soak noodles", "char shallot", "reduce coconut", "ferment fish",
      "wrap roll", "crisp shallot", "smash cucumber", "warm curry paste",
      "toast rice powder", "squeeze tamarind", "blanch sprout",
      "dry chili fry", "caramelize palm sugar", "steam sticky rice",
      "grind curry")),
    "east-asian"       -> (slice(23, 17) ++ Vector(
      "stir-fry", "velvet", "steam basket", "wok toss", "flash fry",
      "red cook", "double steam", "blanch noodles", "roll sushi",
      "press tofu", "ferment bean", "braise soy", "smack cucumber",
      "hand pull noodle", "wrap dumpling", "pleat dumpling", "temper egg",
      "sear hot pot", "glaze teriyaki", "pickle kimchi", "massage cabbage",
      "grind sesame", "shave bonito")),
  )

  /** All process names: core + every filler technique. */
  val processes: Set[String] = coreProcesses ++ fillerPools.values.flatten

  /** Whether an item is an ingredient: neither a process nor a utensil, as
    * are the rare filler ingredients (`rare_<cuisine>_<k>`).
    */
  def isIngredient(name: String): Boolean =
    !processes.contains(name) && !utensils.contains(name)

  /** Baseline inclusion probabilities shared by every cuisine.
    *
    * Chosen so that (a) each cuisine has ~21 generic frequent singletons at
    * support 0.2 (salt/onion/add/... — the paper notes exactly this skew in
    * §IV), and (b) no *pair* of baseline items is frequent under independent
    * draws (max product 0.42 × 0.42 = 0.176 < 0.2), so multi-item patterns
    * only arise from deliberately raised, cuisine-specific items.
    */
  val baseline: Map[String, Double] = Map(
    // processes
    "add" -> 0.42, "heat" -> 0.40, "cook" -> 0.38, "stir" -> 0.33,
    "mix" -> 0.30, "chop" -> 0.28, "serve" -> 0.26, "boil" -> 0.24,
    "simmer" -> 0.21, "bake" -> 0.18, "drain" -> 0.17, "slice" -> 0.15,
    "pour" -> 0.12, "preheat" -> 0.12, "grate" -> 0.10, "whisk" -> 0.08,
    // utensils
    "pan" -> 0.30, "bowl" -> 0.28, "pot" -> 0.25, "oven" -> 0.22,
    "knife" -> 0.15, "skillet" -> 0.10, "spoon" -> 0.10, "baking sheet" -> 0.06,
    // ingredients
    "salt" -> 0.42, "water" -> 0.34, "pepper" -> 0.30, "sugar" -> 0.28,
    "flour" -> 0.24, "onion" -> 0.23, "egg" -> 0.22, "vegetable oil" -> 0.21,
    "garlic" -> 0.19, "butter" -> 0.18, "milk" -> 0.18, "tomato" -> 0.18,
  )
}
