package repro.core

import repro.lst.{DataFile, TableRef}

/** Granularity at which a compaction work unit is scoped (FR1). */
sealed trait Scope
object Scope {
  /** One candidate per table (the original OpenHouse strategy, §6/§7). */
  case object Table extends Scope
  /** One candidate per partition of a partitioned table. */
  case object Partition extends Scope
  /** Files added within the last N table versions only — for keeping fresh
    * data optimal without touching cold history (§4.1).
    */
  final case class SnapshotTail(lastVersions: Int) extends Scope {
    require(lastVersions >= 1)
  }
}

/** How candidates are generated across the catalog (§6 "Candidate Selection
  * and Scheduling"): table scope everywhere, partition scope everywhere, or
  * the paper's hybrid — partition scope for partitioned tables, table scope
  * otherwise.
  */
sealed trait ScopeStrategy
object ScopeStrategy {
  case object TableScope extends ScopeStrategy
  case object PartitionScope extends ScopeStrategy
  case object Hybrid extends ScopeStrategy
  final case class SnapshotScope(lastVersions: Int) extends ScopeStrategy
}

/** A collection of files to be compacted (§4.1): a whole table, one
  * partition, or a snapshot tail, frozen at `baseVersion`. Compaction never
  * crosses partitions (§7 "Model Accuracy"), which the executor enforces by
  * grouping `files` by partition value.
  */
final case class Candidate(
    table: TableRef,
    scope: Scope,
    partition: Option[String],
    files: Vector[DataFile],
    baseVersion: Long) {
  /** Stable identity used for logging and deterministic ordering. */
  def id: String = s"$table${partition.fold("")(p => s"/$p")}"
}

/** Observe-phase output (§4.1 "standardized layout for statistics"):
  * generic file-level statistics of a candidate, computed against a target
  * file size. Custom per-platform statistics can be attached via `custom`.
  */
final case class CandidateStats(
    fileCount: Int,
    smallFileCount: Int,
    totalBytes: Long,
    smallBytes: Long,
    minFileBytes: Long,
    maxFileBytes: Long,
    custom: Map[String, Double] = Map.empty) {
  def smallFileRatio: Double = if (fileCount == 0) 0.0 else smallFileCount.toDouble / fileCount
}

object CandidateStats {
  /** Compute generic statistics for a candidate (observe phase). */
  def of(c: Candidate, targetFileSizeBytes: Long): CandidateStats =
    ofSizes(c.files.map(_.sizeBytes), targetFileSizeBytes)

  /** Generic statistics of a set of file sizes. */
  private[core] def ofSizes(sizes: Seq[Long], targetFileSizeBytes: Long): CandidateStats = {
    val small = sizes.filter(_ < targetFileSizeBytes)
    CandidateStats(
      fileCount = sizes.size,
      smallFileCount = small.size,
      totalBytes = sizes.sum,
      smallBytes = small.sum,
      minFileBytes = if (sizes.isEmpty) 0L else sizes.min,
      maxFileBytes = if (sizes.isEmpty) 0L else sizes.max)
  }
}

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
