package repro.core

import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.lst.LstCatalog
import repro.util.Parallel

/** Scheduling policy for the act phase (§4.4/§6 "Candidate Selection and
  * Scheduling"): candidates of DIFFERENT tables run in parallel, while
  * candidates of the SAME table (partition work units) run sequentially —
  * the paper observed Iceberg v1.2 rejecting concurrent rewrites even on
  * disjoint partitions, so intra-table parallelism only burns retries.
  */
final case class SchedulerConfig(tableParallelism: Int = 4) {
  require(tableParallelism >= 1)
}

final class CompactionScheduler(sched: SchedulerConfig) {

  /** Execute the selected work units; returns one result per candidate in
    * deterministic (candidate id) order regardless of thread timing. A unit
    * that throws is reported on stderr and recorded as failed, with the
    * time it ran as its `wallMs`; the other units and tables still run.
    */
  def run(spark: SparkSession, catalog: LstCatalog,
          selected: Vector[ScoredCandidate], cfg: CompactionConfig): Vector[CompactionResult] = {
    val byTable = selected.groupBy(_.candidate.table).toVector.sortBy(_._1.toString)
    val results = Parallel.all("compaction", sched.tableParallelism, byTable.map { case (_, cands) =>
      () =>
        // sequential within a table — see class doc
        cands.map { sc =>
          val c = sc.candidate
          val start = System.nanoTime()
          try CompactionExecutor.compact(spark, catalog, c, cfg)
          catch {
            case NonFatal(e) =>
              Console.err.println(s"compaction of ${c.id} failed: $e")
              CompactionResult(c.table, c.partition, 0, 0, 0L, 0.0,
                (System.nanoTime() - start) / 1000000L, attempts = 1,
                conflicts = 0, succeeded = false, skipped = false)
          }
        }
    }).flatten
    results.sortBy(r => (r.table.toString, r.partition.getOrElse("")))
  }
}
