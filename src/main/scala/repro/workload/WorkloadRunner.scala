package repro.workload

import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.SynthData
import repro.lst._
import repro.util.Parallel

/** Client-side timing/result record for one read query; a query that threw
  * has `succeeded = false` and scanned nothing.
  */
final case class QueryMetric(hour: Int, db: String, queryId: Int,
                             wallMs: Long, filesScanned: Int, bytesScanned: Long,
                             succeeded: Boolean)

/** Client-side record for one write op, including its optimistic-concurrency
  * retry history (conflicts > 0 ⇒ the client saw versioning conflicts and
  * retried — Table 1 "Client-side Conflict").
  */
final case class WriteMetric(hour: Int, db: String, table: String, kind: String,
                             wallMs: Long, addedFiles: Int, removedFiles: Int,
                             conflicts: Int, succeeded: Boolean)

/** Everything observed while executing one simulated hour. */
final case class HourMetrics(hour: Int, reads: Vector[QueryMetric], writes: Vector[WriteMetric]) {
  def clientConflicts: Int = writes.map(_.conflicts).sum
  def writeQueries: Int = writes.size
  /** Reads that threw plus writes that threw or ran out of retries. */
  def failedOps: Int = reads.count(!_.succeeded) + writes.count(!_.succeeded)
  /** Latency of the reads that returned a result. */
  def latencyPercentiles: LatencySummary = LatencySummary.of(reads.filter(_.succeeded).map(_.wallMs))
  def readWriteLatency: LatencySummary = LatencySummary.of(writes.map(_.wallMs))
}

/** min / p25 / median / p75 / max — the paper's Fig. 8 candlesticks. */
final case class LatencySummary(min: Long, p25: Long, p50: Long, p75: Long, max: Long, n: Int)
object LatencySummary {
  def of(xs: Seq[Long]): LatencySummary = {
    if (xs.isEmpty) return LatencySummary(0, 0, 0, 0, 0, 0)
    val s = xs.sorted
    def pct(p: Double): Long = s(math.min(s.size - 1, (p * s.size).toInt))
    LatencySummary(s.head, pct(0.25), pct(0.50), pct(0.75), s.last, s.size)
  }
}

/** Executes [[HourPlan]]s against a catalog with REAL Spark jobs: database
  * streams run concurrently (one thread each, like the paper's concurrent
  * CAB streams), ops within a stream run in order. Reads are TPC-H-lite
  * query shapes over the LST read path; writes go through [[LstWriter]]
  * with client-side retry on conflicts.
  */
final class WorkloadRunner(spark: SparkSession, catalog: LstCatalog) {

  /** TPC-H-lite read shapes: 0 = lineitem pricing-summary slice (Q1-ish),
    * 1 = orders status rollup, 2 = lineitem⋈orders revenue join (Q3-ish).
    */
  def runRead(hour: Int, op: ReadOp): QueryMetric = {
    val t0 = System.nanoTime()
    val (files, bytes) = op.queryId match {
      case 0 =>
        val s = LstReader.scan(spark, catalog.table(op.db, "lineitem"))
        if (s.filesScanned > 0)
          s.df.groupBy(col("l_returnflag"), col("l_linestatus"))
            .agg(sum(col("l_quantity")), sum(col("l_extendedprice")), count(lit(1)))
            .collect()
        (s.filesScanned, s.bytesScanned)
      case 1 =>
        val s = LstReader.scan(spark, catalog.table(op.db, "orders"))
        if (s.filesScanned > 0)
          s.df.groupBy(col("o_orderstatus"))
            .agg(count(lit(1)), avg(col("o_totalprice"))).collect()
        (s.filesScanned, s.bytesScanned)
      case _ =>
        val li = LstReader.scan(spark, catalog.table(op.db, "lineitem"))
        val ord = LstReader.scan(spark, catalog.table(op.db, "orders"))
        if (li.filesScanned > 0 && ord.filesScanned > 0)
          li.df.join(ord.df, col("l_orderkey") === col("o_orderkey"))
            .groupBy(col("o_orderstatus"))
            .agg(sum(col("l_extendedprice") * (lit(1) - col("l_discount"))))
            .collect()
        (li.filesScanned + ord.filesScanned, li.bytesScanned + ord.bytesScanned)
    }
    QueryMetric(hour, op.db, op.queryId, (System.nanoTime() - t0) / 1000000L, files, bytes, succeeded = true)
  }

  def runWrite(hour: Int, op: Op): WriteMetric = {
    val t0 = System.nanoTime()
    def ms: Long = (System.nanoTime() - t0) / 1000000L
    op match {
      case a: AppendOp =>
        val table = catalog.table(a.db, a.table)
        val df = a.table match {
          case "lineitem" => SynthData.lineitemMonthly(spark, a.sf, monthsOf(table), a.seed)
          case _          => SynthData.orders(spark, a.sf, a.seed)
        }
        val r = LstWriter.append(spark, table, df, a.filesTarget)
        WriteMetric(hour, a.db, a.table, "append", ms, r.addedFiles, 0, r.conflicts, r.succeeded)
      case d: DeleteOp =>
        val table = catalog.table(d.db, d.table)
        val r = LstWriter.deleteFraction(spark, table, d.rowFraction, d.partition, d.fileSample, d.seed)
        WriteMetric(hour, d.db, d.table, "delete", ms, r.addedFiles, r.removedFiles,
          r.conflicts, r.succeeded)
      case r: ReadOp =>
        throw new IllegalArgumentException(s"not a write: $r")
    }
  }

  private def monthsOf(table: LstTable): Int = {
    // appends cover the same month range the table was loaded with; derive
    // from existing partitions (falls back to 6)
    val parts = table.currentSnapshot.partitions
    if (parts.isEmpty) 6 else parts.size
  }

  /** Run one hour: streams in parallel, ops within a stream sequential. An
    * op that throws is recorded as failed and its stream goes on.
    */
  def runHour(plan: HourPlan): HourMetrics = {
    val streams = plan.opsByDb.toVector.sortBy(_._1)
    val done = Parallel.all("cab-stream", streams.size, streams.map { case (_, ops) =>
      () =>
        val qs = Vector.newBuilder[QueryMetric]
        val ws = Vector.newBuilder[WriteMetric]
        ops.foreach { op =>
          val t0 = System.nanoTime()
          def ms: Long = (System.nanoTime() - t0) / 1000000L
          try op match {
            case r: ReadOp => qs += runRead(plan.hour, r)
            case w         => ws += runWrite(plan.hour, w)
          } catch {
            case NonFatal(_) => op match {
              case r: ReadOp   => qs += QueryMetric(plan.hour, r.db, r.queryId, ms, 0, 0L, succeeded = false)
              case a: AppendOp => ws += WriteMetric(plan.hour, a.db, a.table, "append", ms, 0, 0, 0, succeeded = false)
              case d: DeleteOp => ws += WriteMetric(plan.hour, d.db, d.table, "delete", ms, 0, 0, 0, succeeded = false)
            }
          }
        }
        (qs.result(), ws.result())
    })
    HourMetrics(plan.hour,
      done.flatMap(_._1).sortBy(q => (q.db, q.queryId)),
      done.flatMap(_._2).sortBy(w => (w.db, w.table, w.kind)))
  }

  /** Total live data files across the catalog — the Fig. 6 y-axis. */
  def totalFileCount: Long =
    catalog.allTables.map(r => catalog.table(r).currentSnapshot.fileCount.toLong).sum
}
