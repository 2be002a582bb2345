package repro.lst

import java.nio.file.{Files, Path}
import scala.jdk.CollectionConverters._
import scala.util.Using

import org.apache.hadoop.conf.Configuration
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.util.DetRng

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
      addedFiles: Int,
      removedFiles: Int,
      removedBytes: Long,
      attempts: Int,
      conflicts: Int,
      succeeded: Boolean)

  /** One partition's `files`, to be rewritten by [[replace]] as `outputs`
    * files of the same partition.
    */
  final case class FileGroup(partition: Option[String], files: Vector[DataFile], outputs: Int)

  /** Exact row count from the Parquet footer (cheap metadata read).
    * `conf` only resolves the file's filesystem. `ParquetFileReader.open`
    * still builds its read options from a fresh Hadoop `Configuration` for
    * every file, which costs more than the footer read itself. Passing
    * options built from `conf` would avoid that, but the faster appends
    * shift CAB's race between the streams and the compaction tick and slow
    * its reads, so the call stays as it is until that race is understood.
    */
  def parquetRecordCount(p: Path, conf: Configuration): Long = {
    val in = HadoopInputFile.fromPath(new org.apache.hadoop.fs.Path(p.toUri), conf)
    val r = ParquetFileReader.open(in)
    try r.getRecordCount finally r.close()
  }

  /** Stage `df` as Parquet under the table's tmp dir and adopt the produced
    * non-empty files into `data/`, returning their [[DataFile]] entries
    * (tagged with partition values when the table is partitioned).
    * [[LstTable.commit]] stamps their `addedVersion`.
    *
    * With `partition` given, `df` holds the rows of that one partition
    * without the partition column — the CoW delete path and the compaction
    * executor work one partition group at a time — and is written as
    * `filesTarget` files tagged `partition`.
    *
    * Otherwise, on a partitioned table `df` MUST contain
    * `meta.partitionColumn`; we write with `partitionBy` so every physical
    * file holds exactly one partition value, and aim for `filesTarget` files
    * per touched partition. The partition column is a *derived* column
    * (e.g. month-of-shipdate) so dropping it from file contents loses no
    * source data. For an unpartitioned table, `filesTarget` is the total
    * file count.
    *
    * One file (per partition) is written by a single task over `df`'s
    * partitions in order, with no shuffle; more files take a round-robin
    * repartition into `filesTarget` tasks.
    */
  def stage(spark: SparkSession, table: LstTable, df: DataFrame, filesTarget: Int,
            partition: Option[String] = None): Vector[DataFile] = {
    require(filesTarget >= 1, s"filesTarget must be >= 1: $filesTarget")
    val tmp = table.tmpDir.resolve(java.util.UUID.randomUUID().toString)
    val partCol = if (partition.isDefined) None else table.meta.partitionColumn
    partCol.foreach(pc =>
      require(df.columns.contains(pc), s"partitioned table ${table.ref} needs column $pc"))
    var adopted = Vector.empty[DataFile]
    try {
      // One task per output file; partitionBy then splits each task's rows
      // per partition value, yielding exactly `filesTarget` files per touched
      // partition (when rows per partition >= target) — the controllable
      // small-file knob. One file needs no shuffle: coalesce(1) reads the
      // upstream partitions in one task, so the write is a single stage.
      // More files take a round-robin repartition; its explicit partition
      // count also keeps AQE from coalescing tiny shuffles down to one file.
      //
      // Spark copies writer options into this write job's Hadoop conf only,
      // so reads keep the session's filesystem. The FileSystem cache is
      // bypassed, or the session's cached LocalFileSystem would be handed
      // out in place of StagingFileSystem. The LST never reads _SUCCESS.
      val tasks = if (filesTarget == 1) df.coalesce(1) else df.repartition(filesTarget)
      val writer = tasks.write.mode("overwrite")
        .option("fs.file.impl", classOf[StagingFileSystem].getName)
        .option("fs.file.impl.disable.cache", "true")
        .option("mapreduce.fileoutputcommitter.marksuccessfuljobs", "false")
      partCol.fold(writer)(writer.partitionBy(_)).parquet(tmp.toUri.toString)
      table.setSchemaIfAbsent(df.drop(partCol.toSeq: _*).schema.json)
      val conf = spark.sparkContext.hadoopConfiguration
      walk(tmp).filter(p => p.getFileName.toString.endsWith(".parquet"))
        .sortBy(_.toString)
        .foreach { p =>
          val count = parquetRecordCount(p, conf)
          if (count > 0L) { // empty splits are removed with tmp below
            // "<pc>=<value>" directories name the partition of a partitionBy write
            val part = partCol.fold(partition)(pc =>
              Some(p.getParent.getFileName.toString.stripPrefix(s"$pc=")))
            val target = table.adoptStagedFile(p)
            adopted :+= DataFile(target.toString, part, Files.size(target), count, addedVersion = 0L)
          }
        }
      adopted
    } catch {
      case e: Throwable => discard(adopted); throw e
    } finally {
      if (Files.exists(tmp)) walk(tmp).reverse.foreach(Files.deleteIfExists(_))
    }
  }

  /** Every path under `dir` (itself first), with the directory stream closed. */
  private def walk(dir: Path): Vector[Path] =
    Using.resource(Files.walk(dir))(_.iterator.asScala.toVector)

  /** Delete staged files that no snapshot references. */
  private def discard(files: Seq[DataFile]): Unit =
    files.foreach(f => Files.deleteIfExists(Path.of(f.path)))

  /** Append `df` to the table. Appends rebase, so a single commit attempt
    * suffices (the LST never rejects a fast-append). If the commit throws
    * (e.g. a metadata I/O error), the staged files are deleted.
    */
  def append(spark: SparkSession, table: LstTable, df: DataFrame, filesTarget: Int): WriteResult = {
    val base = table.currentVersion
    val added = stage(spark, table, df, filesTarget)
    try table.commit(base, Append(added))
    catch { case e: Throwable => discard(added); throw e }
    WriteResult(added.size, 0, 0L, 1, 0, succeeded = true)
  }

  /** Copy-on-write replace: the one commit path of CoW deletes
    * (`op` = [[Overwrite]]) and compaction rewrites (`op` = [[Rewrite]]).
    *
    * Each attempt reads the current snapshot and `plan`s against it; an
    * empty plan is a no-op success. Every planned group is read through
    * [[LstReader]], passed through `transform` and [[stage]]d as `outputs`
    * files of its partition; then `beforeCommit(attempt)` runs and the
    * attempt commits `op(removed paths, staged files)`. On a
    * [[CommitConflictException]] the attempt's staged files are deleted and
    * the write re-plans against the fresh snapshot, up to `maxRetries`
    * times; any other exception deletes them too and is rethrown.
    *
    * @param beforeCommit test seam invoked between staging and commit —
    *   lets deterministic tests inject a racing commit exactly inside the
    *   optimistic-concurrency window. No-op in production paths.
    */
  def replace(spark: SparkSession, table: LstTable, plan: Snapshot => Vector[FileGroup],
              op: (Vector[String], Vector[DataFile]) => CommitOp, maxRetries: Int,
              transform: DataFrame => DataFrame = identity,
              beforeCommit: Int => Unit = _ => ()): WriteResult = {
    var attempts = 0
    var conflicts = 0
    while (attempts <= maxRetries) {
      attempts += 1
      val base = table.currentVersion
      val groups = plan(table.snapshotAt(base))
      if (groups.isEmpty)
        return WriteResult(0, 0, 0L, attempts, conflicts, succeeded = true)

      val removed = groups.flatMap(_.files)
      var added = Vector.empty[DataFile]
      var committed = false
      try {
        groups.foreach { g =>
          val df = transform(LstReader.scanFiles(spark, table, g.files).df)
          added ++= stage(spark, table, df, g.outputs, g.partition)
        }
        beforeCommit(attempts)
        table.commit(base, op(removed.map(_.path), added))
        committed = true
        return WriteResult(added.size, removed.size, removed.map(_.sizeBytes).sum,
          attempts, conflicts, succeeded = true)
      } catch {
        case _: CommitConflictException => conflicts += 1 // re-plan and retry
      } finally if (!committed) discard(added)
    }
    WriteResult(0, 0, 0L, attempts, conflicts, succeeded = false)
  }

  /** Copy-on-write delete of roughly `rowFraction` of the rows held by a
    * sample of the table's files (all files of `partition` when given,
    * otherwise `fileSample` of the whole table). `seed` draws the sample
    * over the snapshot's file order, so identical tables lose the same rows.
    *
    * Mirrors engine CoW semantics: affected files are fully rewritten minus
    * the deleted rows, producing *smaller, uneven* files (§2 "Updates and
    * Deletes"). The deletion predicate is an xxhash64 over all columns, so
    * which rows go depends only on the rows' contents, not on file layout —
    * a retry after a conflict deletes the same logical rows from the
    * re-planned files.
    *
    * Commits an [[Overwrite]] through [[replace]]: another writer removing a
    * victim file makes the attempt re-plan and retry up to 5 times; each
    * failed attempt counts as one client-side conflict (Table 1, left
    * columns).
    */
  def deleteFraction(spark: SparkSession, table: LstTable, rowFraction: Double,
                     partition: Option[String], fileSample: Double = 1.0,
                     seed: Long = 0L): WriteResult = {
    require(rowFraction >= 0 && rowFraction <= 1, s"bad rowFraction $rowFraction")
    def victims(snap: Snapshot): Vector[FileGroup] = {
      val pool = snap.filesIn(partition)
      val rng = new DetRng(seed)
      pool.map(f => (rng.nextLong(), f)).sortBy(_._1).map(_._2)
        .take(math.max(1, math.round(pool.size * fileSample).toInt))
        .groupBy(_.partition).toVector.sortBy(_._1.getOrElse(""))
        .map { case (part, group) => FileGroup(part, group, group.size) }
    }
    def keep(df: DataFrame): DataFrame =
      df.filter(not(pmod(xxhash64(df.columns.map(col).toSeq: _*), lit(10000L))
        .lt(lit(math.round(rowFraction * 10000)))))
    replace(spark, table, victims, Overwrite, maxRetries = 5, keep)
  }
}
