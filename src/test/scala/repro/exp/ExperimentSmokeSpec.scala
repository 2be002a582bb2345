package repro.exp

import java.nio.file.{Files, Path}
import scala.jdk.CollectionConverters._
import scala.util.Using

import repro.lst.LstFixture

/** Integration smoke tests: the experiment harnesses behind the benches,
  * exercised end-to-end at tiny scale.
  */
class ExperimentSmokeSpec extends LstFixture {

  private val tiny = CabExperiment.Params(
    nDbs = 2, hours = 3, seed = 9, months = 3,
    appendSf = 0.0005, appendFiles = 3,
    initialSf = 0.001, initialLineitemFiles = 3, initialOrdersFiles = 4)

  private val sweptNames = Vector("nocomp", "table-10", "hybrid-500")

  private def cabDirs: Set[String] =
    Using.resource(Files.list(Path.of(System.getProperty("java.io.tmpdir"))))(_.iterator.asScala
      .map(_.getFileName.toString)
      .filter(n => sweptNames.exists(s => n.startsWith(s"cab-$s-"))).toSet)

  // listed when the suite is built, before any test forces the sweep
  private val cabDirsBefore = cabDirs

  /** One tiny CAB sweep that every CAB test below reads. */
  private lazy val sweep: Map[String, CabExperiment.StrategyResult] =
    CabExperiment.runAll(spark, tiny,
      CabExperiment.paperStrategies().filter(s => sweptNames.contains(s.name)))
      .map(r => r.strategy -> r).toMap

  test("CabExperiment nocomp baseline grows the file count") {
    val res = sweep("nocomp")
    assert(res.hours.size == 3)
    assert(res.hours.last.fileCountEnd > res.initialFileCount)
    assert(res.hours.forall(_.clusterConflicts == 0))
    assert(res.hours.forall(_.compactionUnits == 0))
    assert(res.hours.forall(_.failedOps == 0))
  }

  test("CabExperiment with table-scope compaction reduces files vs baseline") {
    val (nocomp, table10, hybrid500) = (sweep("nocomp"), sweep("table-10"), sweep("hybrid-500"))
    assert(table10.hours.last.fileCountEnd < nocomp.hours.last.fileCountEnd)
    assert(table10.hours.exists(_.compactionUnits > 0))
    assert(table10.meanGbHrPerUnit > 0.0 && hybrid500.meanGbHrPerUnit > 0.0)
    assert((nocomp.hours ++ table10.hours ++ hybrid500.hours).forall(_.failedOps == 0))
    // the bounds of Fig7ComputeCostBench
    assert(table10.meanGbHrPerUnit > hybrid500.meanGbHrPerUnit,
      s"table-10 mean ${table10.meanGbHrPerUnit} vs hybrid-500 ${hybrid500.meanGbHrPerUnit}")
    assert(table10.gbHrStdDev >= hybrid500.gbHrStdDev,
      s"table-10 stddev ${table10.gbHrStdDev} vs hybrid-500 ${hybrid500.gbHrStdDev}")
  }

  test("Fig 8 mechanism: from hour 3, hybrid-500 scans under half nocomp's files per read") {
    def lateMeanFiles(r: CabExperiment.StrategyResult): Double = {
      val hs = r.hours.filter(_.hour >= 3)
      hs.map(_.meanFilesScannedPerRead).sum / hs.size
    }
    val (nocomp, hybrid) = (sweep("nocomp"), sweep("hybrid-500"))
    assert((nocomp.hours ++ hybrid.hours).forall(_.failedOps == 0))
    // the bound of Fig8QueryLatencyBench
    assert(lateMeanFiles(hybrid) < lateMeanFiles(nocomp) / 2,
      s"hybrid-500 files/read ${lateMeanFiles(hybrid)} vs nocomp ${lateMeanFiles(nocomp)}")
  }

  test("CabExperiment records write counts and latency summaries") {
    sweep("nocomp").hours.foreach { h =>
      assert(h.writeQueries > 0)
      assert(h.readLatency.n > 0)
      assert(h.readLatency.max >= h.readLatency.p50)
      assert(h.meanFilesScannedPerRead > 0.0)
    }
  }

  test("a CAB strategy run deletes its catalog") {
    assert(sweep.size == 3)
    val left = cabDirs -- cabDirsBefore
    assert(left.isEmpty, s"CAB runs left catalogs behind: $left")
  }

  test("paperStrategies defines the §6 sweep") {
    val s = CabExperiment.paperStrategies()
    assert(s.map(_.name) == Vector("nocomp", "table-10", "hybrid-50", "hybrid-500"))
    assert(s.head.acfg.isEmpty && s.tail.forall(_.acfg.isDefined))
  }

  test("MaintenanceExperiment: maintenance degrades, compaction restores (Fig 3 shape)") {
    val p = MaintenanceExperiment.Params(
      sf = 0.01, months = 3, initialFiles = 3,
      maintenanceAppendSf = 0.0005, maintenanceAppendFiles = 40,
      queryRepeats = 2)
    val phases = MaintenanceExperiment.run(spark, p)
    assert(phases.map(_.phase) == Vector("initial", "degraded", "compacted"))
    val Vector(initial, degraded, compacted) = phases
    assert(degraded.liveFiles > initial.liveFiles * 3,
      s"maintenance must fragment: ${initial.liveFiles} -> ${degraded.liveFiles}")
    assert(compacted.liveFiles < degraded.liveFiles / 2)
    assert(degraded.seconds > initial.seconds,
      s"fragmentation must slow the single-user phase: ${initial.seconds} -> ${degraded.seconds}")
  }

  test("FileSizeDistribution histogram sums to ~100% and shifts after compaction") {
    val c = freshCatalog()
    val w = new repro.workload.CabWorkload(2, 1, seed = 4, months = 3)
    w.setup(spark, c, initialSf = 0.002, initialLineitemFiles = 6, initialOrdersFiles = 8)
    val target = 512L << 10
    val before = FileSizeDistribution.histogram(c, target)
    assert(math.abs(before.map(_._2).sum - 100.0) < 1e-6)
    def meanSizeAndCount(): (Double, Long) = {
      val sizes = c.allTables.flatMap(r => c.table(r).currentSnapshot.files.map(_.sizeBytes))
      (sizes.sum.toDouble / sizes.size, sizes.size.toLong)
    }
    val (meanBefore, nBefore) = meanSizeAndCount()
    val acfg = repro.core.AutoCompConfig(
      repro.core.ScopeStrategy.TableScope, CabExperiment.compactionConfig,
      Seq(repro.core.Filters.MinSmallFiles(2)),
      repro.core.Ranker.defaultMoop, repro.core.Selector.TopK(100))
    new repro.core.AutoComp(c).runOnce(spark, acfg)
    val (meanAfter, nAfter) = meanSizeAndCount()
    assert(nAfter < nBefore / 2, s"file count must drop: $nBefore -> $nAfter")
    assert(meanAfter > meanBefore * 2,
      s"distribution must shift toward the target: mean $meanBefore -> $meanAfter")
  }
}
