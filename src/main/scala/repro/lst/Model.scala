package repro.lst

/** Identity of a table inside an [[LstCatalog]]. */
final case class TableRef(db: String, name: String) {
  override def toString: String = s"$db.$name"
}

/** One immutable data file tracked by the table metadata.
  *
  * @param path       absolute path of the Parquet file on the local FS
  * @param partition  partition value ("1992-03") or None for unpartitioned
  *                   tables; every row in the file belongs to this partition
  * @param sizeBytes  physical file size
  * @param recordCount exact row count (from the Parquet footer)
  * @param addedVersion table version whose commit added this file, set by
  *                     [[LstTable.commit]]
  */
final case class DataFile(
    path: String,
    partition: Option[String],
    sizeBytes: Long,
    recordCount: Long,
    addedVersion: Long)

/** A committed table version: the complete data-file inventory after the
  * commit, Iceberg-snapshot style (manifests merged into one list).
  *
  * @param version   monotonically increasing table version (v0 = empty)
  * @param operation one of [[Snapshot.OpAppend]] / [[Snapshot.OpOverwrite]]
  *                  / [[Snapshot.OpRewrite]] / [[Snapshot.OpCreate]]
  * @param files     full file inventory at this version
  */
final case class Snapshot(version: Long, operation: String, files: Vector[DataFile]) {

  def fileCount: Int = files.size
  def totalBytes: Long = files.iterator.map(_.sizeBytes).sum
  def totalRecords: Long = files.iterator.map(_.recordCount).sum
  def partitions: Vector[String] = files.flatMap(_.partition).distinct.sorted
  def filesIn(partition: Option[String]): Vector[DataFile] =
    partition.fold(files)(p => files.filter(_.partition.contains(p)))
}

object Snapshot {
  val OpCreate = "create"
  val OpAppend = "append"
  /** User read-modify-write (CoW delete/update): removes and adds files. */
  val OpOverwrite = "overwrite"
  /** Maintenance rewrite (compaction): data-equivalent file replacement. */
  val OpRewrite = "rewrite"
}

/** Per-table static metadata, stored once per table by [[LstTable]].
  *
  * @param partitionColumn name of the derived partition column (e.g. the
  *                        month of l_shipdate) or None for unpartitioned
  * @param schemaJson      Spark StructType JSON captured at first append so
  *                        empty-table scans stay typed
  */
final case class TableMeta(partitionColumn: Option[String], schemaJson: Option[String])

/** A write operation submitted to [[LstTable.commit]]: it removes the
  * files at `removed` and adds `added`. A commit conflicts if any removed
  * path is not in the current snapshot (another writer got there first).
  */
sealed trait CommitOp {
  def removed: Vector[String]
  def added: Vector[DataFile]
  def operation: String
}

/** Pure addition of files; never conflicts (rebases onto the current
  * snapshot like Iceberg fast-append).
  */
final case class Append(added: Vector[DataFile]) extends CommitOp {
  def removed: Vector[String] = Vector.empty
  def operation: String = Snapshot.OpAppend
}

/** User CoW delete/update: replace `removed` with `added`. */
final case class Overwrite(removed: Vector[String], added: Vector[DataFile]) extends CommitOp {
  def operation: String = Snapshot.OpOverwrite
}

/** Compaction rewrite: replace `removed` with data-equivalent `added`.
  * Mirrors the coarse Apache Iceberg v1.2 validation observed in the paper
  * (§4.4): a rewrite also conflicts with ANY rewrite committed after its
  * base — even one touching disjoint partitions. Intervening overwrites
  * conflict only if they removed one of `removed`; appends rebase cleanly.
  */
final case class Rewrite(removed: Vector[String], added: Vector[DataFile]) extends CommitOp {
  def operation: String = Snapshot.OpRewrite
}

/** Optimistic-concurrency failure. `kind` distinguishes the paper's two
  * conflict classes: "client" (user write lost a race, §6.2 Table 1 left)
  * and "cluster" (compaction commit rejected, Table 1 right).
  */
final class CommitConflictException(val table: TableRef, val kind: String, msg: String)
    extends RuntimeException(s"[$kind] conflict on $table: $msg")
