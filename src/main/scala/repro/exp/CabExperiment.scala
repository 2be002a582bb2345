package repro.exp

import java.nio.file.Files
import java.util.concurrent.{Executors, TimeUnit}
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.lst.LstCatalog
import repro.workload._

/** The §6 synthetic evaluation: CAB streams over `nDbs` TPC-H-lite
  * databases with AutoComp triggered hourly on a logically separate
  * "compaction cluster" (a dedicated thread pool racing the workload
  * threads for table commits — the same races the paper's two clusters
  * exhibit through the shared catalog).
  *
  * One run of [[runStrategy]] produces everything Figures 6–8 and Table 1
  * need for one strategy; [[runAll]] sweeps the paper's strategy set.
  */
object CabExperiment {

  /** Scaled-down §6 parameters (see DESIGN.md §4 for the scaling map). */
  final case class Params(
      nDbs: Int = 6,
      hours: Int = 5,
      seed: Long = 42L,
      months: Int = 6,
      appendSf: Double = 0.002,
      appendFiles: Int = 6,
      initialSf: Double = 0.004,
      initialLineitemFiles: Int = 8,
      initialOrdersFiles: Int = 16)

  /** One strategy of the §6 sweep; `acfg=None` is the no-compaction
    * baseline.
    */
  final case class StrategyDef(name: String, acfg: Option[AutoCompConfig])

  /** Everything recorded for one (strategy, hour) cell. */
  final case class HourRecord(
      strategy: String,
      hour: Int,
      fileCountEnd: Long,
      writeQueries: Int,
      failedOps: Int,
      clientConflicts: Int,
      clusterConflicts: Int,
      compactionUnits: Int,
      compactionUnitGbHrs: Vector[Double],
      compactionNetReduction: Int,
      readLatency: LatencySummary,
      readWriteLatency: LatencySummary,
      meanFilesScannedPerRead: Double)

  final case class StrategyResult(
      strategy: String,
      initialFileCount: Long,
      hours: Vector[HourRecord],
      wallMs: Long) {
    def meanGbHrPerUnit: Double = {
      val xs = hours.flatMap(_.compactionUnitGbHrs)
      if (xs.isEmpty) 0.0 else xs.sum / xs.size
    }
    def gbHrStdDev: Double = {
      val xs = hours.flatMap(_.compactionUnitGbHrs)
      if (xs.size < 2) 0.0
      else {
        val m = xs.sum / xs.size
        math.sqrt(xs.map(x => (x - m) * (x - m)).sum / xs.size)
      }
    }
  }

  /** Compaction settings of every §6 strategy: a 512 KB target (≙ the
    * paper's 512 MB), 8 GB executors rewriting 256 MB per hour.
    */
  val compactionConfig: CompactionConfig = CompactionConfig(512L << 10, 8.0, 256.0 * (1L << 20))

  /** The paper's §6 strategy set: no compaction, TABLE-scope top-10, hybrid
    * top-50 and top-500, all with MOOP weights 0.7 (ΔF) / 0.3 (GBHr).
    *
    * @param kDivisor scales the paper's k values down with the fleet size
    *   (our bench fleet is ~5× smaller than CAB's, so k must shrink
    *   proportionally or every strategy covers the whole fleet each round
    *   and the curves collapse together). Labels keep the paper's names.
    */
  def paperStrategies(kDivisor: Int = 1): Vector[StrategyDef] = {
    def acfg(strategy: ScopeStrategy, paperK: Int) = AutoCompConfig(
      strategy, compactionConfig, Seq(Filters.MinSmallFiles(2)), Ranker.defaultMoop,
      Selector.TopK(math.max(1, paperK / kDivisor)))
    Vector(
      StrategyDef("nocomp", None),
      StrategyDef("table-10", Some(acfg(ScopeStrategy.TableScope, 10))),
      StrategyDef("hybrid-50", Some(acfg(ScopeStrategy.Hybrid, 50))),
      StrategyDef("hybrid-500", Some(acfg(ScopeStrategy.Hybrid, 500))))
  }

  /** Run one strategy end to end on a fresh catalog. Compaction ticks fire
    * at the start of hours 2..hours (⇒ `hours-1` executions — the paper's
    * "four compaction executions in a 5 hour timeframe") and run
    * CONCURRENTLY with that hour's workload. The catalog is deleted when
    * the run ends.
    */
  def runStrategy(spark: SparkSession, p: Params, strat: StrategyDef): StrategyResult = {
    val catalog = new LstCatalog(Files.createTempDirectory(s"cab-${strat.name}-"))
    try runOn(spark, p, strat, catalog) finally catalog.delete()
  }

  private def runOn(spark: SparkSession, p: Params, strat: StrategyDef,
                    catalog: LstCatalog): StrategyResult = {
    val wl = new CabWorkload(p.nDbs, p.hours, p.seed, p.months, p.appendSf, p.appendFiles)
    wl.setup(spark, catalog, p.initialSf, p.initialLineitemFiles, p.initialOrdersFiles)
    val runner = new WorkloadRunner(spark, catalog)
    val autoComp = new AutoComp(catalog)
    val initialFiles = runner.totalFileCount
    val compPool = Executors.newSingleThreadExecutor()
    implicit val compEc: ExecutionContext = ExecutionContext.fromExecutor(compPool)
    val t0 = System.nanoTime()
    try {
      val records = wl.plan.map { hourPlan =>
        val compFuture: Option[Future[AutoCompReport]] = strat.acfg match {
          case Some(acfg) if hourPlan.hour >= 2 =>
            Some(Future(autoComp.runOnce(spark, acfg)))
          case _ => None
        }
        val metrics = runner.runHour(hourPlan)
        val report = compFuture.map(f => Await.result(f, Duration.Inf))
        HourRecord(
          strategy = strat.name,
          hour = hourPlan.hour,
          fileCountEnd = runner.totalFileCount,
          writeQueries = metrics.writeQueries,
          failedOps = metrics.failedOps,
          clientConflicts = metrics.clientConflicts,
          clusterConflicts = report.fold(0)(_.clusterConflicts),
          compactionUnits = report.fold(0)(_.succeededUnits),
          compactionUnitGbHrs = report.fold(Vector.empty[Double])(
            _.results.filter(r => r.succeeded && !r.skipped).map(_.gbHr)),
          compactionNetReduction = report.fold(0)(_.netFileReduction),
          readLatency = metrics.latencyPercentiles,
          readWriteLatency = metrics.readWriteLatency,
          meanFilesScannedPerRead = {
            val reads = metrics.reads.filter(_.succeeded)
            if (reads.isEmpty) 0.0 else reads.map(_.filesScanned).sum.toDouble / reads.size
          })
      }
      StrategyResult(strat.name, initialFiles, records, (System.nanoTime() - t0) / 1000000L)
    } finally {
      compPool.shutdown()
      compPool.awaitTermination(10, TimeUnit.MINUTES)
    }
  }

  def runAll(spark: SparkSession, p: Params,
             strategies: Vector[StrategyDef]): Vector[StrategyResult] =
    strategies.map(s => runStrategy(spark, p, s))
}
