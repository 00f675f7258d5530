package repro.recipedb

import org.scalatest.funsuite.AnyFunSuite

class ItemsSpec extends AnyFunSuite {

  test("categories are mutually exclusive") {
    assert(Items.processes.intersect(Items.utensils).isEmpty)
  }

  test("isIngredient() classifies every baseline item consistently") {
    Items.baseline.keys.foreach { item =>
      assert(Items.isIngredient(item) == !(Items.processes.contains(item) || Items.utensils.contains(item)), item)
    }
  }

  test("rare items classify as ingredients") {
    assert(Items.isIngredient("rare_3_17"))
  }

  test("all filler pool items are processes (authenticity-space invariant)") {
    // DESIGN.md §2: fillers must be processes so that pattern-count
    // calibration cannot distort the ingredient prevalence space (Fig 5).
    Items.fillerPools.foreach { case (family, pool) =>
      pool.foreach(i => assert(Items.processes.contains(i), s"$family/$i"))
    }
  }

  test("no filler pool contains duplicates") {
    Items.fillerPools.foreach { case (family, pool) =>
      assert(pool.distinct.size == pool.size,
        s"$family: ${pool.diff(pool.distinct).distinct}")
    }
  }

  test("filler pools do not contain baseline items") {
    Items.fillerPools.values.flatten.foreach { i =>
      assert(!Items.baseline.contains(i), i)
    }
  }

  test("every pool is large enough for its family's calibration demand") {
    // The largest observed demand is ~35 fillers (Italian); pools hold 40.
    Items.fillerPools.values.foreach(pool => assert(pool.size >= 40))
  }

  test("related families share techniques, distant families share fewer") {
    def shared(a: String, b: String): Int =
      Items.fillerPools(a).toSet.intersect(Items.fillerPools(b).toSet).size
    assert(shared("western-european", "north-american") >
      shared("western-european", "east-asian"))
    assert(shared("southeast-asian", "east-asian") >
      shared("southeast-asian", "western-european"))
  }

  test("baseline design invariant: no pair of baseline items is expected-frequent") {
    // Multi-item patterns must only arise from deliberately raised items.
    val ps = Items.baseline.values.toSeq.sorted.reverse
    assert(ps.head * ps(1) < 0.2, s"top baseline pair product ${ps.head * ps(1)}")
  }

  test("baseline yields ~21 expected-frequent generic singletons") {
    val n = Items.baseline.values.count(_ >= 0.2)
    assert(n == 21, s"got $n")
  }
}
