package repro.bench

import repro.SparkSpec
import repro.exp.{MaintenanceExperiment, Reports}

/** Figure 3: end-to-end single-user runtime before/after a data-
  * maintenance phase (≈3% modified) and after compaction.
  *
  * Paper (TPC-DS SF1000, 16-node cluster): maintenance degraded the
  * single-user phase by 1.53×; manual compaction restored performance to
  * near the initial level. We reproduce the shape on TPC-H-lite.
  */
class Fig3MaintenanceBench extends SparkSpec {

  test("Figure 3: maintenance degrades, compaction restores") {
    val phases = MaintenanceExperiment.run(spark, MaintenanceExperiment.Params(
      sf = 0.05, months = 6, initialFiles = 4,
      maintenanceAppendSf = 0.0015, maintenanceAppendFiles = 80,
      queryRepeats = 3))
    println(Reports.fig3(phases))

    val Vector(initial, degraded, compacted) = phases
    assert(degraded.liveFiles > initial.liveFiles * 3)
    assert(degraded.seconds > initial.seconds * 1.1,
      f"maintenance should degrade runtime: ${initial.seconds}%.1f -> ${degraded.seconds}%.1f")
    assert(compacted.seconds < degraded.seconds,
      f"compaction should restore: ${degraded.seconds}%.1f -> ${compacted.seconds}%.1f")
    assert(compacted.liveFiles < degraded.liveFiles / 3)
  }
}
