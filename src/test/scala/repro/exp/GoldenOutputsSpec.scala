package repro.exp

import repro.core.{CandidateGenerator, CompactionConfig, CompactionExecutor, ScopeStrategy}
import repro.fleet.DayMetrics
import repro.lst.{LstFixture, LstReader, LstWriter}
import repro.tune.{Tuner, WorkloadModel}

/** Exact outputs of the two deterministic, Spark-free experiments — the
  * Fig 9 tuner runs as `Fig9AutoTuneBench` calls them, and the Fig 10a,
  * 10b and 10c schedules on a 2000-table fleet — and of the LST rewrite
  * paths (CoW delete, compaction) on the test fixtures. Any change to a
  * shared formula (GBHr, bin-pack output count, trigger rule, trait
  * orientation, MOOP weights) or to which rows a rewrite keeps fails here.
  */
class GoldenOutputsSpec extends LstFixture {

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
      val best = r.minBy(_.durationSec)
      assert((r.map(_.durationSec).sum, (best.threshold, best.durationSec)) == ((sum, (bestThreshold, bestDuration))),
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

  /** (k compacted, files reduced, TBHr spent, open calls) summed over the
    * days, then the final (total files, small files).
    */
  private def fleetTotals(days: Vector[DayMetrics]) =
    ((days.map(_.kCompacted).sum, days.map(_.filesReduced).sum, days.map(_.tbHrSpent).sum,
      days.map(_.openCalls).sum), (days.last.totalFiles, days.last.totalSmallFiles))

  test("reduced-scale Fig 10b and 10c fleet runs are pinned") {
    val cfg = FleetExperiments.prodCfg(nTables = 2000)
    // budget-greedy selection under the 2 TBHr per-candidate ceiling
    assert(fleetTotals(FleetExperiments.runFig10b(cfg.copy(maxCandidateTbHr = 2.0))) ==
      ((981, 4533962L, 194.44414936336898, 2654574157L), (150809916L, 148909840L)))
    // no per-candidate ceiling
    assert(fleetTotals(FleetExperiments.runFig10c(cfg.copy(maxCandidateTbHr = Double.MaxValue))) ==
      ((9117, 304712827L, 15089.348623223945, 4052945181L), (21131242L, 853226L)))
  }

  /** `SynthData` seeds `rand` per Spark partition, so fixture rows (and
    * which of them a delete drops) depend on the session's parallelism:
    * parallelism -> (orders rows after deleteFraction(0.2), lineitem rows
    * after deleteFraction(0.5) of the first partition).
    */
  private val deletedRows = Map(1 -> (1215L, 4945L), 2 -> (1208L, 4980L), 3 -> (1221L, 4998L),
    4 -> (1208L, 4990L), 8 -> (1184L, 5006L))

  test("CoW delete outputs are pinned") {
    val par = spark.sparkContext.defaultParallelism
    val (ordersRows, lineitemRows) = deletedRows.getOrElse(par,
      fail(s"no pinned values for parallelism $par (recorded: ${deletedRows.keys.toVector.sorted})"))
    val c = freshCatalog()
    val o = loadedOrders(c)
    LstWriter.deleteFraction(spark, o, 0.2, None)
    assert((LstReader.scan(spark, o).df.count(), o.currentSnapshot.fileCount) == ((ordersRows, 6)))
    val li = loadedLineitem(c)
    LstWriter.deleteFraction(spark, li, 0.5, Some(li.currentSnapshot.partitions.head))
    assert((LstReader.scan(spark, li).df.count(), li.currentSnapshot.fileCount) == ((lineitemRows, 12)))
  }

  test("table-scope compaction output is pinned") {
    val c = freshCatalog()
    val t = loadedLineitem(c, months = 3, filesPerPartition = 4)
    val cfg = CompactionConfig(targetFileSizeBytes = 64L << 20, executorMemoryGb = 8.0,
      rewriteBytesPerHour = 1e9)
    CompactionExecutor.compact(spark, c, CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head, cfg)
    assert((t.currentSnapshot.fileCount, t.currentSnapshot.totalRecords) == ((3, 6000L)))
  }
}
