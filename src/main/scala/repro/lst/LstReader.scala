package repro.lst

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.types.{DataType, StructType}

/** Manifest-driven read path: the file list comes from the snapshot
  * metadata (never from a directory listing — directory contents include
  * files from uncommitted or expired versions), and the scan itself goes
  * through Catalyst via `spark.read.parquet(files: _*)`.
  *
  * Scan metrics (files/bytes scanned) are first-class because the paper's
  * query-performance story (§6.2, Fig. 8/11) is "fewer, larger files →
  * fewer opens → faster scans".
  */
object LstReader {

  /** A planned scan plus the metadata-derived cost counters. */
  final case class Scan(df: DataFrame, filesScanned: Int, bytesScanned: Long)

  private def emptyDf(spark: SparkSession, table: LstTable): DataFrame = {
    val schema = table.meta.schemaJson
      .map(j => DataType.fromJson(j).asInstanceOf[StructType])
      .getOrElse(new StructType())
    spark.createDataFrame(spark.sparkContext.emptyRDD[org.apache.spark.sql.Row], schema)
  }

  /** Scan the table (optionally a single partition) at the given snapshot,
    * defaulting to the current one. Partition pruning is metadata-only:
    * non-matching files are never touched.
    */
  def scan(spark: SparkSession, table: LstTable,
           partition: Option[String] = None,
           snapshot: Option[Snapshot] = None): Scan =
    scanFiles(spark, table, snapshot.getOrElse(table.currentSnapshot).filesIn(partition))

  /** Scan an explicit file subset (the copy-on-write replace path). */
  def scanFiles(spark: SparkSession, table: LstTable, files: Seq[DataFile]): Scan =
    if (files.isEmpty) Scan(emptyDf(spark, table), 0, 0L)
    else Scan(spark.read.parquet(files.map(_.path): _*), files.size, files.map(_.sizeBytes).sum)
}
