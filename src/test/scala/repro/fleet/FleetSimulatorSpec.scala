package repro.fleet

import org.scalatest.funsuite.AnyFunSuite

class FleetSimulatorSpec extends AnyFunSuite {

  /** Small fleet for fast tests. */
  private val cfg = FleetConfig(nTables = 500, initialSmallFilesScale = 500.0)
  private def sim = new FleetSimulator(cfg)

  test("initial fleet is deterministic in seed") {
    val a = new FleetSimulator(cfg).initialFleet()
    val b = new FleetSimulator(cfg).initialFleet()
    assert(a == b)
  }

  test("initial fleet is heavy-tailed") {
    val fleet = sim.initialFleet()
    val counts = fleet.map(_.smallFiles)
    assert(counts.max > 10 * (counts.sum / counts.size), "expected a heavy tail")
  }

  test("run requires a day-1 policy") {
    intercept[IllegalArgumentException](sim.run(3, Map(2 -> Policy.NoComp)))
  }

  test("nocomp: file count grows monotonically") {
    val days = sim.run(10, Map(1 -> Policy.NoComp))
    assert(days.map(_.totalFiles) == days.map(_.totalFiles).sorted)
    assert(days.forall(_.kCompacted == 0))
    assert(days.forall(_.tbHrSpent == 0.0))
  }

  test("auto top-k compacts exactly k tables daily") {
    val days = sim.run(5, Map(1 -> Policy.AutoTopK(20)))
    assert(days.forall(_.kCompacted == 20))
    assert(days.forall(_.filesReduced > 0))
    assert(days.forall(_.tbHrSpent > 0.0))
  }

  test("auto compaction keeps total small files far below nocomp") {
    val base = sim.run(15, Map(1 -> Policy.NoComp))
    val auto = sim.run(15, Map(1 -> Policy.AutoTopK(50)))
    assert(auto.last.totalSmallFiles < base.last.totalSmallFiles / 2)
  }

  test("manual fixed set stops adapting: auto beats manual on reduction (§7, +12% claim)") {
    val manual = sim.run(20, Map(1 -> Policy.ManualFixed(50)))
    val auto = sim.run(20, Map(1 -> Policy.AutoTopK(5)))
    // skip the first days (manual's initial cleanup of its fixed set is huge)
    val mTail = manual.drop(5).map(_.filesReduced).sum
    val aTail = auto.drop(5).map(_.filesReduced).sum
    assert(aTail > mTail,
      s"auto top-5 should out-reduce manual fixed-50 in steady state: $aTail vs $mTail")
  }

  test("budget policy spends within the TBHr budget") {
    val budget = 0.5
    val days = sim.run(5, Map(1 -> Policy.AutoBudget(budget)))
    assert(days.forall(_.tbHrSpent <= budget + 1e-9))
    assert(days.forall(_.kCompacted > 0))
  }

  test("dynamic k scales with the allocated budget (Fig 10b)") {
    val smallK = sim.run(3, Map(1 -> Policy.AutoBudget(0.2))).map(_.kCompacted).sum
    val bigK = sim.run(3, Map(1 -> Policy.AutoBudget(2.0))).map(_.kCompacted).sum
    assert(bigK > smallK, s"larger budget must compact more tables: $bigK vs $smallK")
  }

  test("policy transition mid-run changes behaviour (Fig 10a)") {
    val days = sim.run(10, Map(1 -> Policy.ManualFixed(30), 6 -> Policy.AutoTopK(5)))
    assert(days.take(5).forall(_.policy == "manual-30"))
    assert(days.drop(5).forall(_.policy == "auto-5"))
    assert(days(5).kCompacted == 5)
  }

  test("openCalls drop when compaction activates (Fig 11b)") {
    val days = sim.run(12, Map(1 -> Policy.NoComp, 7 -> Policy.AutoTopK(100)))
    val beforeSlope = days(5).openCalls - days(3).openCalls
    assert(days(3).openCalls < days(5).openCalls) // growing without compaction
    // after activation open calls fall below the uncompacted trajectory
    assert(days.last.openCalls < days(5).openCalls + 6 * beforeSlope)
  }

  test("compaction reduces small files to ~zero for picked tables") {
    val initial = sim.initialFleet().map(t => t.id -> t.smallFiles).toMap
    var picked = Vector.empty[FleetTable]
    // compact every table that passes the candidate filters
    sim.run(1, Map(1 -> Policy.AutoTopK(cfg.nTables)), onDay = (_, _, p) => picked = p)
    assert(picked.nonEmpty)
    assert(picked.map(_.smallFiles).sum < picked.map(t => initial(t.id)).sum / 100)
  }

  test("whole run is deterministic (NFR2)") {
    val a = sim.run(8, Map(1 -> Policy.AutoTopK(10)))
    val b = sim.run(8, Map(1 -> Policy.AutoTopK(10)))
    assert(a == b)
  }

  test("filesReduced consistent with totalFiles trajectory") {
    val days = sim.run(6, Map(1 -> Policy.AutoTopK(30)))
    // totalFiles(d) = totalFiles(d-1) + growth - reduction; reduction > 0
    // means totals grow slower than the nocomp run
    val noComp = sim.run(6, Map(1 -> Policy.NoComp))
    assert(days.last.totalFiles < noComp.last.totalFiles)
  }
}
