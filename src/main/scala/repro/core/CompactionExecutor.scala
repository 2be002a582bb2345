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
  * optimistic concurrency through [[LstWriter.replace]].
  *
  * Bin-packing semantics match Iceberg's rewrite-data-files: files already
  * at or above the target are untouched; small files are grouped BY
  * PARTITION (compaction never crosses partitions, §7) and each group is
  * rewritten into the outputs [[Traits.packedOutputs]] counts. A group it
  * says cannot shrink (one small file, or packing yields no fewer files) is
  * skipped.
  *
  * On a conflict the candidate is re-planned against the fresh snapshot
  * (files that disappeared meanwhile drop out), and the rewrite retries up
  * to `maxRetries` times.
  */
object CompactionExecutor {

  /** @param beforeCommit test seam passed to [[LstWriter.replace]]. */
  def compact(spark: SparkSession, catalog: LstCatalog, candidate: Candidate,
              cfg: CompactionConfig, maxRetries: Int = 3,
              beforeCommit: Int => Unit = _ => ()): CompactionResult = {
    val start = System.nanoTime()
    def plan(snap: Snapshot): Vector[LstWriter.FileGroup] = {
      val live = snap.files.map(f => f.path -> f).toMap
      // Only candidate files still present are rewritable.
      candidate.files.flatMap(f => live.get(f.path))
        .filter(_.sizeBytes < cfg.targetFileSizeBytes)
        .groupBy(_.partition).toVector.sortBy(_._1.getOrElse(""))
        .flatMap { case (part, files) =>
          Traits.packedOutputs(files.size, files.map(_.sizeBytes).sum, cfg.targetFileSizeBytes)
            .map(nOut => LstWriter.FileGroup(part, files, nOut.toInt))
        }
    }
    val r = LstWriter.replace(spark, catalog.table(candidate.table), plan, Rewrite, maxRetries,
      beforeCommit = beforeCommit)
    CompactionResult(candidate.table, candidate.partition, r.removedFiles, r.addedFiles,
      r.removedBytes, Traits.gbHr(r.removedBytes, cfg), (System.nanoTime() - start) / 1000000L,
      r.attempts, r.conflicts, r.succeeded, skipped = r.succeeded && r.removedFiles == 0)
  }
}
