package repro.geo

import org.scalatest.funsuite.AnyFunSuite
import repro.recipedb.CuisineSpecs

class RegionsSpec extends AnyFunSuite {

  test("coordinates cover exactly the 26 Table I regions") {
    assert(Regions.coordinates.keySet == CuisineSpecs.all.map(_.name).toSet)
    assert(Regions.coordinates.size == 26)
  }

  test("latitudes and longitudes are in range") {
    Regions.coordinates.values.foreach { case (lat, lon) =>
      assert(lat >= -90 && lat <= 90)
      assert(lon >= -180 && lon <= 180)
    }
  }

  test("haversine of identical points is 0") {
    val p = (48.85, 2.35)
    assert(Regions.haversineKm(p, p) == 0.0)
  }

  test("haversine known value: London to Paris ~ 344 km") {
    val london = (51.5074, -0.1278)
    val paris = (48.8566, 2.3522)
    val d = Regions.haversineKm(london, paris)
    assert(d > 330 && d < 355, d.toString)
  }

  test("haversine known value: quarter circumference pole to equator") {
    val d = Regions.haversineKm((90.0, 0.0), (0.0, 0.0))
    assert(math.abs(d - math.Pi * Regions.EarthRadiusKm / 2) < 1.0)
  }

  test("haversine is symmetric") {
    val a = (35.0, 139.0)
    val b = (-33.0, 151.0)
    assert(Regions.haversineKm(a, b) == Regions.haversineKm(b, a))
  }

  test("haversine never exceeds half the circumference") {
    val pts = Regions.coordinates.values.toSeq
    for (a <- pts; b <- pts)
      assert(Regions.haversineKm(a, b) <= math.Pi * Regions.EarthRadiusKm + 1e-6)
  }

  test("distanceMatrix respects the order given") {
    val order = Seq("French", "UK", "Japanese")
    val d = Regions.distanceMatrix(order)
    assert(d.n == 3)
    assert(d(0, 1) == Regions.haversineKm(
      Regions.coordinates("French"), Regions.coordinates("UK")))
    val all = CuisineSpecs.all.map(_.name)
    val c = all.map(Regions.coordinates)
    val dAll = Regions.distanceMatrix(all)
    assert(dAll.n == 26)
    for (i <- 0 until 26; j <- 0 until 26 if i != j)
      assert(dAll(i, j) == Regions.haversineKm(c(i), c(j)), s"(${all(i)}, ${all(j)})")
  }

  test("distanceMatrix rejects unknown regions") {
    intercept[IllegalArgumentException](Regions.distanceMatrix(Seq("Atlantis")))
  }

  test("geographic sanity: France closer to Belgium than to Japan") {
    val d = Regions.distanceMatrix(Seq("French", "Belgian", "Japanese"))
    assert(d(0, 1) < d(0, 2))
  }

  test("geographic sanity: Canada closer to US than to Australia") {
    val d = Regions.distanceMatrix(Seq("Canadian", "US", "Australian"))
    assert(d(0, 1) < d(0, 2))
  }
}
