package repro.lst

import java.nio.file.{Path => JPath}

import org.apache.hadoop.fs.{FileStatus, Path}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.execution.datasources.{FileIndex, HadoopFsRelation, PartitionDirectory}
import org.apache.spark.sql.execution.datasources.parquet.ParquetFileFormat
import org.apache.spark.sql.types.{DataType, StructType}

/** Manifest-driven read path, planned the way Iceberg and Delta plan a scan
  * (paper §2): the file list, the file sizes and the schema all come from
  * the snapshot metadata, so planning launches no Spark job — no directory
  * listing (directory contents include files of uncommitted or expired
  * versions) and no footer read to infer a schema. The scan itself is a
  * Catalyst Parquet scan over exactly those files; a snapshot file missing
  * from disk fails the query instead of dropping its rows.
  *
  * Scan metrics (files/bytes scanned) are first-class because the paper's
  * query-performance story (§6.2, Fig. 8/11) is "fewer, larger files →
  * fewer opens → faster scans".
  */
object LstReader {

  /** A planned scan plus the metadata-derived cost counters. */
  final case class Scan(df: DataFrame, filesScanned: Int, bytesScanned: Long)

  /** The snapshot's files as Spark sees them. Files live flat in `data/`,
    * so there is one partition directory and no partition schema.
    */
  private final class ManifestIndex(files: Seq[DataFile]) extends FileIndex {
    private val statuses: Array[FileStatus] = files.map { f =>
      new FileStatus(f.sizeBytes, false, 1, 0L, 0L, new Path(JPath.of(f.path).toUri))
    }.toArray
    def rootPaths: Seq[Path] = statuses.toSeq.map(_.getPath)
    def listFiles(partitionFilters: Seq[Expression], dataFilters: Seq[Expression]): Seq[PartitionDirectory] =
      Seq(PartitionDirectory(InternalRow.empty, statuses))
    def inputFiles: Array[String] = statuses.map(_.getPath.toString)
    def refresh(): Unit = ()
    def sizeInBytes: Long = statuses.map(_.getLen).sum
    def partitionSchema: StructType = new StructType()
  }

  /** Scan the table (optionally a single partition) at the given snapshot,
    * defaulting to the current one. Partition pruning is metadata-only:
    * non-matching files are never touched.
    */
  def scan(spark: SparkSession, table: LstTable,
           partition: Option[String] = None,
           snapshot: Option[Snapshot] = None): Scan =
    scanFiles(spark, table, snapshot.getOrElse(table.currentSnapshot).filesIn(partition))

  /** Scan an explicit file subset (the copy-on-write replace path). The
    * stored schema is made nullable, as a Parquet read of the same files
    * returns it; over zero files the result is a typed empty DataFrame.
    */
  def scanFiles(spark: SparkSession, table: LstTable, files: Seq[DataFile]): Scan = {
    val stored = table.meta.schemaJson.fold(new StructType())(j => DataType.fromJson(j).asInstanceOf[StructType])
    val schema = StructType(stored.fields.map(_.copy(nullable = true)))
    val relation = HadoopFsRelation(new ManifestIndex(files), new StructType(), schema, None,
      new ParquetFileFormat(), Map.empty)(spark)
    Scan(spark.baseRelationToDataFrame(relation), files.size, files.map(_.sizeBytes).sum)
  }
}
