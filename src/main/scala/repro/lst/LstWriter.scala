package repro.lst

import java.nio.file.{Files, Path}
import scala.jdk.CollectionConverters._

import org.apache.hadoop.conf.Configuration
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Write path for [[LstTable]]: stages Parquet files with a *controllable
  * file count* (the knob that makes small-file proliferation reproducible),
  * adopts them into the table, and commits with optimistic concurrency.
  *
  * All writes are real Spark jobs — `df.write.parquet` through Catalyst —
  * so produced files have genuine Parquet sizes/footers, which downstream
  * traits (ΔF, entropy, GBHr) consume.
  */
object LstWriter {

  /** Outcome of a logical write, including its optimistic-concurrency
    * retry history (conflicts = number of CommitConflictExceptions absorbed).
    */
  final case class WriteResult(
      table: TableRef,
      snapshot: Snapshot,
      addedFiles: Int,
      addedBytes: Long,
      removedFiles: Int,
      attempts: Int,
      conflicts: Int,
      succeeded: Boolean)

  /** Exact row count from the Parquet footer (cheap metadata read). */
  def parquetRecordCount(p: Path): Long = {
    val in = HadoopInputFile.fromPath(
      new org.apache.hadoop.fs.Path(p.toUri), new Configuration())
    val r = ParquetFileReader.open(in)
    try r.getRecordCount finally r.close()
  }

  /** Stage `df` as Parquet under the table's tmp dir and adopt the produced
    * non-empty files into `data/`, returning their [[DataFile]] entries
    * (tagged with partition values when the table is partitioned).
    *
    * With `partition` given, `df` holds the rows of that one partition
    * without the partition column — the CoW delete path and the compaction
    * executor work one partition group at a time — and is written as
    * `filesTarget` files tagged `partition`.
    *
    * Otherwise, on a partitioned table `df` MUST contain
    * `meta.partitionColumn`; we write with `partitionBy` so every physical
    * file holds exactly one partition value, and aim for `filesTarget` files
    * per touched partition via a round-robin repartition. The partition
    * column is a *derived* column (e.g. month-of-shipdate) so dropping it
    * from file contents loses no source data. For an unpartitioned table,
    * `filesTarget` is the total file count.
    */
  def stage(spark: SparkSession, table: LstTable, df: DataFrame, filesTarget: Int,
            baseVersion: Long, partition: Option[String] = None): Vector[DataFile] = {
    require(filesTarget >= 1, s"filesTarget must be >= 1: $filesTarget")
    val tmp = table.tmpDir.resolve(java.util.UUID.randomUUID().toString)
    val partCol = if (partition.isDefined) None else table.meta.partitionColumn
    partCol.foreach(pc =>
      require(df.columns.contains(pc), s"partitioned table ${table.ref} needs column $pc"))
    // Round-robin into `filesTarget` tasks; partitionBy then splits each
    // task's rows per partition value, yielding exactly `filesTarget` files
    // per touched partition (when rows per partition >= target) — the
    // controllable small-file knob. An explicit partition count also keeps
    // AQE from coalescing tiny shuffles down to one file.
    val writer = df.repartition(filesTarget).write.mode("overwrite")
    partCol.fold(writer)(writer.partitionBy(_)).parquet(tmp.toUri.toString)
    table.setSchemaIfAbsent(df.drop(partCol.toSeq: _*).schema.json)

    val staged = Files.walk(tmp).iterator.asScala
      .filter(p => p.getFileName.toString.endsWith(".parquet"))
      .toVector.sortBy(_.toString)
    val adopted = staged.flatMap { p =>
      val count = parquetRecordCount(p)
      if (count == 0L) None // empty split; removed with tmp below
      else {
        // "<pc>=<value>" directories name the partition of a partitionBy write
        val part = partCol.fold(partition)(pc =>
          Some(p.getParent.getFileName.toString.stripPrefix(s"$pc=")))
        val target = table.adoptStagedFile(p)
        Some(DataFile(target.toString, part, Files.size(target), count, baseVersion + 1))
      }
    }
    Files.walk(tmp).iterator.asScala.toVector.reverse.foreach(Files.deleteIfExists(_))
    adopted
  }

  /** Commit `op`, whose added files were staged by [[stage]]. On a
    * [[CommitConflictException]] those files are referenced by no snapshot,
    * so they are deleted before the exception is rethrown.
    */
  def commitStaged(table: LstTable, base: Long, op: CommitOp): Snapshot =
    try table.commit(base, op)
    catch {
      case e: CommitConflictException =>
        op.added.foreach(f => Files.deleteIfExists(Path.of(f.path)))
        throw e
    }

  /** Append `df` to the table. Appends rebase, so a single commit attempt
    * suffices (the LST never rejects a fast-append).
    */
  def append(spark: SparkSession, table: LstTable, df: DataFrame, filesTarget: Int): WriteResult = {
    val base = table.currentVersion
    val added = stage(spark, table, df, filesTarget, base)
    val snap = table.commit(base, Append(added))
    WriteResult(table.ref, snap, added.size, added.map(_.sizeBytes).sum, 0, 1, 0, succeeded = true)
  }

  /** Copy-on-write delete of roughly `rowFraction` of the rows held by a
    * sample of the table's files (all files of `partition` when given,
    * otherwise `fileSample` of the whole table).
    *
    * Mirrors engine CoW semantics: affected files are fully rewritten minus
    * the deleted rows, producing *smaller, uneven* files (§2 "Updates and
    * Deletes"). The deletion predicate is an xxhash64 over all columns, so
    * which rows go depends only on the rows' contents, not on file layout —
    * a retry after a conflict deletes the same logical rows from the
    * re-planned files.
    *
    * On [[CommitConflictException]] (another writer removed our victim
    * files) the staged files are deleted, and the operation re-plans against
    * the fresh snapshot and retries up to `maxRetries` times; each failed
    * attempt counts as one client-side conflict (Table 1, left columns).
    */
  def deleteFraction(spark: SparkSession, table: LstTable, rowFraction: Double,
                     partition: Option[String], fileSample: Double = 1.0,
                     maxRetries: Int = 5): WriteResult = {
    require(rowFraction >= 0 && rowFraction <= 1, s"bad rowFraction $rowFraction")
    var attempts = 0
    var conflicts = 0
    while (attempts <= maxRetries) {
      attempts += 1
      val base = table.currentVersion
      val snap = table.snapshotAt(base)
      val pool = snap.filesIn(partition)
      val nVictims = math.max(1, math.round(pool.size * fileSample).toInt)
      val victims = pool.sortBy(_.path).take(math.min(nVictims, pool.size))
      if (victims.isEmpty)
        return WriteResult(table.ref, snap, 0, 0, 0, attempts, conflicts, succeeded = true)

      val byPart = victims.groupBy(_.partition).toVector.sortBy(_._1.getOrElse(""))
      val schemaCols = spark.read.parquet(victims.head.path).columns
      val keep = not(pmod(xxhash64(schemaCols.map(col).toSeq: _*), lit(10000L))
        .lt(lit(math.round(rowFraction * 10000))))

      val added = byPart.flatMap { case (part, group) =>
        val remaining = spark.read.parquet(group.map(_.path): _*).filter(keep)
        stage(spark, table, remaining, group.size, base, part)
      }
      try {
        val next = commitStaged(table, base, Overwrite(victims.map(_.path), added))
        return WriteResult(table.ref, next, added.size, added.map(_.sizeBytes).sum,
          victims.size, attempts, conflicts, succeeded = true)
      } catch {
        case _: CommitConflictException => conflicts += 1 // re-plan and retry
      }
    }
    WriteResult(table.ref, table.currentSnapshot, 0, 0, 0, attempts, conflicts, succeeded = false)
  }
}
