package repro.core

import org.apache.spark.sql.SparkSession

import repro.lst._

/** Outcome of one act-phase work unit. `conflicts` counts cluster-side
  * commit rejections absorbed (Table 1, right columns); `skipped` marks
  * no-op candidates (nothing worth rewriting).
  */
final case class CompactionResult(
    table: TableRef,
    partition: Option[String],
    removedFiles: Int,
    addedFiles: Int,
    bytesRewritten: Long,
    gbHr: Double,
    wallMs: Long,
    attempts: Int,
    conflicts: Int,
    succeeded: Boolean,
    skipped: Boolean) {
  def netFileReduction: Int = removedFiles - addedFiles
}

/** Act phase (§4.4, §6): rewrite a candidate's below-target files into
  * ~target-size files with a real Spark job, then commit a [[Rewrite]] with
  * optimistic concurrency.
  *
  * Bin-packing semantics match Iceberg's rewrite-data-files: files already
  * at or above the target are untouched; small files are grouped BY
  * PARTITION (compaction never crosses partitions, §7) and each group is
  * rewritten into [[Traits.binPackOutputs]] outputs. Groups that cannot shrink
  * (one small file, or packing yields no fewer files) are skipped.
  *
  * On a conflict the staged files are deleted, the candidate is re-planned
  * against the fresh snapshot (files that disappeared meanwhile drop out),
  * and the rewrite retries up to `maxRetries` times.
  */
object CompactionExecutor {

  /** @param beforeCommit test seam invoked between staging and commit —
    *   lets deterministic tests inject a racing commit exactly inside the
    *   optimistic-concurrency window. No-op in production paths.
    */
  def compact(spark: SparkSession, catalog: LstCatalog, candidate: Candidate,
              cfg: CompactionConfig, maxRetries: Int = 3,
              beforeCommit: Int => Unit = _ => ()): CompactionResult = {
    val table = catalog.table(candidate.table)
    val start = System.nanoTime()
    var attempts = 0
    var conflicts = 0

    def elapsedMs: Long = (System.nanoTime() - start) / 1000000L

    while (attempts <= maxRetries) {
      attempts += 1
      val base = table.currentVersion
      val live = table.snapshotAt(base).files.map(f => f.path -> f).toMap
      // Re-plan: only candidate files still present are rewritable.
      val planned = candidate.files.flatMap(f => live.get(f.path))
      val groups = planned
        .filter(_.sizeBytes < cfg.targetFileSizeBytes)
        .groupBy(_.partition).toVector.sortBy(_._1.getOrElse(""))
        .flatMap { case (part, files) =>
          val nOut = Traits.binPackOutputs(files.map(_.sizeBytes).sum, cfg.targetFileSizeBytes)
          if (files.size > nOut) Some((part, files, nOut.toInt)) else None
        }
      if (groups.isEmpty)
        return CompactionResult(candidate.table, candidate.partition, 0, 0, 0L, 0.0,
          elapsedMs, attempts, conflicts, succeeded = true, skipped = true)

      val victims = groups.flatMap(_._2)
      val bytes = victims.map(_.sizeBytes).sum
      val added = groups.flatMap { case (part, files, nOut) =>
        val df = LstReader.scanFiles(spark, table, files).df
        LstWriter.stage(spark, table, df, nOut, base, part)
      }
      try {
        beforeCommit(attempts)
        LstWriter.commitStaged(table, base, Rewrite(victims.map(_.path), added))
        return CompactionResult(candidate.table, candidate.partition,
          victims.size, added.size, bytes, Traits.gbHr(bytes, cfg), elapsedMs, attempts, conflicts,
          succeeded = true, skipped = false)
      } catch {
        case _: CommitConflictException => conflicts += 1
      }
    }
    CompactionResult(candidate.table, candidate.partition, 0, 0, 0L, 0.0,
      elapsedMs, attempts, conflicts, succeeded = false, skipped = false)
  }
}
