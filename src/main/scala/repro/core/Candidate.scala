package repro.core

import repro.lst.{DataFile, TableRef}

/** How candidates are scoped across the catalog (§4.1, §6 "Candidate
  * Selection and Scheduling"): table scope everywhere, or the paper's
  * hybrid — partition scope for partitioned tables, table scope otherwise.
  */
sealed trait ScopeStrategy
object ScopeStrategy {
  /** One candidate per table (the original OpenHouse strategy, §6/§7). */
  case object TableScope extends ScopeStrategy
  /** One candidate per partition value of the current snapshot. Every file
    * of an unpartitioned table has partition `None`, so such a table yields
    * one table-scope candidate; partition scope everywhere is the same
    * strategy.
    */
  case object Hybrid extends ScopeStrategy
}

/** A collection of files to be compacted (§4.1): a whole table or one
  * partition. Compaction never crosses partitions (§7 "Model Accuracy"),
  * which the executor enforces by grouping `files` by partition value.
  */
final case class Candidate(table: TableRef, partition: Option[String], files: Vector[DataFile]) {
  /** Stable identity used for logging and deterministic ordering. */
  def id: String = s"$table${partition.fold("")(p => s"/$p")}"
}

/** Observe-phase output (§4.1 "standardized layout for statistics"): the
  * file-level statistics of a candidate against a target file size, as
  * [[Traits.observe]] computes them.
  */
final case class CandidateStats(
    fileCount: Int,
    smallFileCount: Int,
    totalBytes: Long,
    smallBytes: Long,
    entropy: Double)

/** Global compaction configuration shared across the OODA phases.
  *
  * @param targetFileSizeBytes the target file size (512 MB in production,
  *   scaled down in this reproduction — see DESIGN.md §4)
  * @param executorMemoryGb    memory per compaction executor (GBHr model)
  * @param rewriteBytesPerHour sustained rewrite throughput (GBHr model)
  */
final case class CompactionConfig(
    targetFileSizeBytes: Long,
    executorMemoryGb: Double = 8.0,
    rewriteBytesPerHour: Double = 64.0 * (1L << 30)) {
  require(targetFileSizeBytes > 0)
  require(executorMemoryGb > 0)
  require(rewriteBytesPerHour > 0)
}
