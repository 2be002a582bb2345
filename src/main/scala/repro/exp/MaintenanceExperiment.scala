package repro.exp

import java.nio.file.Files

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.SynthData
import repro.core._
import repro.lst._

/** The §2 motivating experiment (Figure 3): a single-user query phase, a
  * data-maintenance phase that modifies ~3% of the data (CoW deletes +
  * fragmented inserts), a degraded re-run, manual compaction, and a
  * restored re-run. The paper measured 1.53× degradation on TPC-DS SF1000;
  * we reproduce the SHAPE (degraded ≫ initial, restored ≈ initial) on
  * TPC-H-lite.
  */
object MaintenanceExperiment {

  final case class PhaseResult(phase: String, seconds: Double, liveFiles: Long)

  final case class Params(
      sf: Double = 0.05,
      months: Int = 6,
      initialFiles: Int = 4,
      maintenanceAppendSf: Double = 0.0015, // ~3% of sf
      maintenanceAppendFiles: Int = 60,
      queryRepeats: Int = 3)

  /** Share of rows the maintenance phase deletes from each table (~3%). */
  private val MaintenanceDeleteFraction = 0.03
  private val Seed = 13L

  /** The single-user phase: a fixed battery of read queries, repeated. */
  private def singleUserPhase(spark: SparkSession, catalog: LstCatalog, p: Params): Double = {
    val li = catalog.table("tpch", "lineitem")
    val ord = catalog.table("tpch", "orders")
    val t0 = System.nanoTime()
    (1 to p.queryRepeats).foreach { _ =>
      val liScan = LstReader.scan(spark, li).df
      val ordScan = LstReader.scan(spark, ord).df
      liScan.groupBy(col("l_returnflag"), col("l_linestatus"))
        .agg(sum(col("l_quantity")), sum(col("l_extendedprice")),
          avg(col("l_discount")), count(lit(1))).collect()
      ordScan.groupBy(col("o_orderstatus")).agg(count(lit(1)), sum(col("o_totalprice"))).collect()
      liScan.join(ordScan, col("l_orderkey") === col("o_orderkey"))
        .groupBy(col("o_orderstatus"))
        .agg(sum(col("l_extendedprice") * (lit(1) - col("l_discount")))).collect()
      liScan.filter(col("l_shipdate") < lit("1992-03-01"))
        .agg(sum(col("l_extendedprice") * col("l_discount"))).collect()
    }
    (System.nanoTime() - t0) / 1e9
  }

  private def liveFiles(catalog: LstCatalog): Long =
    catalog.allTables.map(r => catalog.table(r).currentSnapshot.fileCount.toLong).sum

  /** The three phases on a fresh catalog, deleted when the run ends. */
  def run(spark: SparkSession, p: Params = Params()): Vector[PhaseResult] = {
    val catalog = new LstCatalog(Files.createTempDirectory("maint-"))
    try runOn(spark, p, catalog) finally catalog.delete()
  }

  private def runOn(spark: SparkSession, p: Params, catalog: LstCatalog): Vector[PhaseResult] = {
    val li = catalog.createTable("tpch", "lineitem", Some("l_shipmonth"))
    val ord = catalog.createTable("tpch", "orders", None)
    LstWriter.append(spark, li,
      SynthData.lineitemMonthly(spark, p.sf, p.months, Seed), p.initialFiles)
    LstWriter.append(spark, ord, SynthData.orders(spark, p.sf, Seed + 1), p.initialFiles)

    val out = Vector.newBuilder[PhaseResult]
    // Unmeasured warmup: JIT + codegen caches would otherwise inflate the
    // first measured phase and mask the fragmentation effect.
    singleUserPhase(spark, catalog, p)
    out += PhaseResult("initial", singleUserPhase(spark, catalog, p), liveFiles(catalog))

    // Maintenance: ~3% deleted (CoW) + fragmented incremental inserts
    LstWriter.deleteFraction(spark, li, MaintenanceDeleteFraction, None)
    LstWriter.deleteFraction(spark, ord, MaintenanceDeleteFraction, None)
    LstWriter.append(spark, li,
      SynthData.lineitemMonthly(spark, p.maintenanceAppendSf, p.months, Seed + 4),
      p.maintenanceAppendFiles)
    LstWriter.append(spark, ord,
      SynthData.orders(spark, p.maintenanceAppendSf, Seed + 5),
      p.maintenanceAppendFiles)

    out += PhaseResult("degraded", singleUserPhase(spark, catalog, p), liveFiles(catalog))

    // Manual compaction (table scope, both tables)
    val cfg = CompactionConfig(4L << 20)
    catalog.allTables.foreach { ref =>
      val cand = CandidateGenerator.forTable(catalog.table(ref), ScopeStrategy.TableScope).head
      CompactionExecutor.compact(spark, catalog, cand, cfg)
    }

    out += PhaseResult("compacted", singleUserPhase(spark, catalog, p), liveFiles(catalog))
    out.result()
  }
}
