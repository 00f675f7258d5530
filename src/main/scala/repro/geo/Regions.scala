package repro.geo

import repro.cluster.DistMatrix

/** Geographic ground truth for the paper's validation (Fig 6): a lat/lon
  * centroid per Table I region, the haversine great-circle distance, and
  * the resulting pairwise distance matrix.
  */
object Regions {

  /** Approximate geographic centroid (lat, lon) of each Table I region. */
  val coordinates: Map[String, (Double, Double)] = Map(
    "Australian"             -> (-25.0, 134.0),
    "Belgian"                -> (50.6, 4.5),
    "Canadian"               -> (56.0, -106.0),
    "Caribbean"              -> (18.0, -77.0),
    "Central American"       -> (13.0, -85.0),
    "Chinese and Mongolian"  -> (38.0, 104.0),
    "Deutschland"            -> (51.0, 10.0),
    "Eastern European"       -> (50.0, 30.0),
    "French"                 -> (46.0, 2.0),
    "Greek"                  -> (39.0, 22.0),
    "Indian Subcontinent"    -> (22.0, 78.0),
    "Irish"                  -> (53.0, -8.0),
    "Italian"                -> (42.0, 13.0),
    "Japanese"               -> (36.0, 138.0),
    "Mexican"                -> (23.0, -102.0),
    "Rest Africa"            -> (2.0, 22.0),
    "South American"         -> (-15.0, -60.0),
    "Southeast Asian"        -> (10.0, 106.0),
    "Spanish and Portuguese" -> (40.0, -4.0),
    "Thai"                   -> (15.0, 101.0),
    "Korean"                 -> (36.5, 128.0),
    "Middle Eastern"         -> (29.0, 45.0),
    "Northern Africa"        -> (28.0, 10.0),
    "Scandinavian"           -> (62.0, 15.0),
    "UK"                     -> (54.0, -2.0),
    "US"                     -> (39.0, -98.0),
  )

  val EarthRadiusKm = 6371.0

  /** Great-circle distance in km between two (lat, lon) points in degrees. */
  def haversineKm(a: (Double, Double), b: (Double, Double)): Double = {
    val dLat = math.toRadians(b._1 - a._1)
    val dLon = math.toRadians(b._2 - a._2)
    val s = math.pow(math.sin(dLat / 2), 2) +
      math.cos(math.toRadians(a._1)) * math.cos(math.toRadians(b._1)) *
        math.pow(math.sin(dLon / 2), 2)
    2 * EarthRadiusKm * math.asin(math.min(1.0, math.sqrt(s)))
  }

  /** Pairwise geographic distance matrix over regions in the given order. */
  def distanceMatrix(order: Seq[String]): DistMatrix = {
    order.foreach(r => require(coordinates.contains(r), s"unknown region: $r"))
    val c = order.map(coordinates).toIndexedSeq
    DistMatrix(c.size, (for (i <- c.indices; j <- i + 1 until c.size)
      yield haversineKm(c(i), c(j))).toArray)
  }
}
