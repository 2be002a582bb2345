package repro.exp

import org.scalatest.funsuite.AnyFunSuite

import repro.tune.{Tuner, WorkloadModel}

/** Exact outputs of the two deterministic, Spark-free experiments: the
  * Fig 9 tuner runs as `Fig9AutoTuneBench` calls them, and the Fig 10a
  * schedule on a 2000-table fleet. Any change to a shared formula (GBHr,
  * bin-pack output count, trigger rule, trait orientation, MOOP weights)
  * that moves a figure fails here.
  */
class GoldenOutputsSpec extends AnyFunSuite {

  test("Fig 9 tuner runs are pinned") {
    val tuner = new Tuner(seed = 2024L)
    // (workload, trigger trait) -> (sum of durations, best threshold, best duration)
    val expected = Vector(
      (WorkloadModel.wp1, "smallFileCount") -> ((257591.79999999973, 0.20044125392364864, 7492.049999999993)),
      (WorkloadModel.wp1, "fileEntropy") -> ((262164.89999999973, 0.0032848031193510874, 7492.049999999993)),
      (WorkloadModel.tpch, "smallFileCount") -> ((232243.16249999995, 1.01, 1994.3999999999999)),
      (WorkloadModel.wp3, "smallFileCount") -> ((282574.78749999905, 0.13109599381946135, 7313.550000000027)))
    expected.foreach { case ((w, traitName), (sum, bestThreshold, bestDuration)) =>
      val r = tuner.optimize(w, traitName, 25)
      assert((r.map(_.durationSec).sum, tuner.bestOf(r)) == ((sum, (bestThreshold, bestDuration))),
        s"${w.name}/$traitName")
    }
  }

  test("reduced-scale Fig 10a fleet run is pinned") {
    val days = FleetExperiments.runFig10a(FleetExperiments.prodCfg(nTables = 2000))
    assert(days.map(_.kCompacted).sum == 1680)
    assert(days.map(_.filesReduced).sum == 54689951L)
    assert(days.map(_.tbHrSpent).sum == 2286.5823354600902)
    assert(days.map(_.openCalls).sum == 3599678331L)
    assert(days.last.totalFiles == 114941367L)
    assert(days.last.totalSmallFiles == 111448119L)
  }
}
