package repro.lst

import java.io.IOException
import java.nio.file.{Files, Path}
import scala.jdk.CollectionConverters._

import jdk.jfr.Recording
import jdk.jfr.consumer.RecordingFile
import org.apache.hadoop.fs.permission.FsPermission
import org.apache.spark.SparkException
import org.apache.spark.sql.functions._

import repro.Oracle
import repro.core.{CandidateGenerator, CompactionConfig, CompactionExecutor, ScopeStrategy}

class LstWriterReaderSpec extends LstFixture {

  test("append to unpartitioned table hits the requested file count") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 6)
    val snap = t.currentSnapshot
    assert(snap.fileCount == 6)
    assert(snap.files.forall(_.partition.isEmpty))
    assert(snap.files.forall(_.recordCount > 0))
  }

  test("append to partitioned table tags files with partition values") {
    val c = freshCatalog()
    val t = loadedLineitem(c, months = 3, filesPerPartition = 3)
    val snap = t.currentSnapshot
    assert(snap.partitions.nonEmpty)
    assert(snap.files.forall(_.partition.isDefined))
    // ~3 files per month partition (salting is approximate but bounded)
    snap.files.groupBy(_.partition).foreach { case (_, fs) =>
      assert(fs.size >= 1 && fs.size <= 3)
    }
  }

  test("a one-file partitioned append writes one file per touched partition") {
    val c = freshCatalog()
    val df = tinyLineitem(months = 3)
    val expected = df.groupBy("l_shipmonth").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    val t = c.createTable("db1", "li", Some("l_shipmonth"))
    LstWriter.append(spark, t, df, 1)
    val snap = t.currentSnapshot
    assert(snap.partitions.toSet == expected.keySet)
    snap.partitions.foreach(p => assert(snap.filesIn(Some(p)).size == 1, s"partition $p"))
    // footer counts, per partition, equal the source rows
    assert(snap.files.map(f => f.partition.get -> f.recordCount).toMap == expected)
  }

  test("recordCount from footers matches source row count") {
    val c = freshCatalog()
    val df = tinyOrders(sf = 0.001)
    val expected = df.count()
    val t = c.createTable("db1", "o", None)
    LstWriter.append(spark, t, df, 4)
    assert(t.currentSnapshot.totalRecords == expected)
  }

  test("scan returns all appended data (oracle-checked)") {
    val c = freshCatalog()
    val df = tinyOrders(sf = 0.001)
    val t = c.createTable("db1", "o", None)
    LstWriter.append(spark, t, df, 5)
    val got = LstReader.scan(spark, t).df
      .agg(count(lit(1)) as "n", round(sum(col("o_totalprice")), 2) as "total")
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS n, round(sum(CAST(o_totalprice AS DOUBLE)), 2) AS total FROM orders",
      "orders" -> df)
  }

  test("partitioned scan keeps source columns intact (oracle-checked)") {
    val c = freshCatalog()
    val df = tinyLineitem(sf = 0.001, months = 2)
    val t = c.createTable("db1", "li", Some("l_shipmonth"))
    LstWriter.append(spark, t, df, 3)
    val got = LstReader.scan(spark, t).df
      .groupBy(col("l_returnflag") as "rf")
      .agg(round(sum(col("l_extendedprice")), 2) as "revenue")
      .select(col("rf"), col("revenue"))
    Oracle.assertEquivalent(got,
      "SELECT l_returnflag AS rf, round(sum(CAST(l_extendedprice AS DOUBLE)), 2) AS revenue " +
        "FROM lineitem GROUP BY l_returnflag",
      "lineitem" -> df.drop("l_shipmonth"))
  }

  test("partition column dropped from physical files, rows partitioned correctly") {
    val c = freshCatalog()
    val t = loadedLineitem(c, months = 3)
    val snap = t.currentSnapshot
    val aFile = snap.files.head
    val content = spark.read.parquet(aFile.path)
    assert(!content.columns.contains("l_shipmonth"))
    // every row in the file belongs to the tagged month
    val months = content.select(date_format(col("l_shipdate"), "yyyy-MM")).distinct()
      .collect().map(_.getString(0)).toSet
    assert(months == Set(aFile.partition.get))
  }

  test("scan with partition filter only touches that partition's files") {
    val c = freshCatalog()
    val t = loadedLineitem(c, months = 3)
    val snap = t.currentSnapshot
    val p = snap.partitions.head
    val scan = LstReader.scan(spark, t, Some(p))
    assert(scan.filesScanned == snap.filesIn(Some(p)).size)
    assert(scan.bytesScanned == snap.filesIn(Some(p)).map(_.sizeBytes).sum)
  }

  test("scan of empty table returns typed empty DF after schema registration") {
    val c = freshCatalog()
    val t = c.createTable("db1", "o", None)
    // no schema yet → empty schema, zero files
    val s0 = LstReader.scan(spark, t)
    assert(s0.filesScanned == 0 && s0.df.columns.isEmpty)
    LstWriter.append(spark, t, tinyOrders(sf = 0.001), 2)
    // remove everything via overwrite, then scan: schema must survive
    val snap = t.currentSnapshot
    t.commit(snap.version, Overwrite(snap.files.map(_.path), Vector.empty))
    val s1 = LstReader.scan(spark, t)
    assert(s1.filesScanned == 0)
    assert(s1.df.columns.contains("o_orderkey"))
  }

  test("scan schema equals a Parquet read of the same files") {
    val c = freshCatalog()
    Vector(loadedLineitem(c), loadedOrders(c)).foreach { t =>
      val paths = t.currentSnapshot.files.map(_.path)
      assert(LstReader.scan(spark, t).df.schema == spark.read.parquet(paths: _*).schema, t.ref)
    }
  }

  test("planning a scan of more than 32 files launches no Spark job") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 40)
    assert(t.currentSnapshot.fileCount > 32) // above Spark's parallel-listing threshold
    var scan: LstReader.Scan = null
    assert(jobsDuring { scan = LstReader.scan(spark, t) }.count == 0)
    assert(jobsDuring(scan.df.count()).count > 0) // the action does run jobs
  }

  test("a snapshot file missing from disk fails the query") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 4)
    Files.delete(Path.of(t.currentSnapshot.files.head.path))
    intercept[SparkException](LstReader.scan(spark, t).df.count())
  }

  test("deleteFraction removes ~the requested fraction of rows") {
    val c = freshCatalog()
    val df = tinyOrders(sf = 0.002)
    val before = df.count()
    val t = c.createTable("db1", "o", None)
    LstWriter.append(spark, t, df, 5)
    val res = LstWriter.deleteFraction(spark, t, rowFraction = 0.3, partition = None)
    assert(res.succeeded && res.conflicts == 0)
    val after = LstReader.scan(spark, t).df.count()
    val removedFrac = 1.0 - after.toDouble / before
    assert(removedFrac > 0.15 && removedFrac < 0.45, s"removedFrac=$removedFrac")
  }

  test("deleteFraction scoped to a partition leaves other partitions untouched") {
    val c = freshCatalog()
    val t = loadedLineitem(c, sf = 0.002, months = 3)
    val snap0 = t.currentSnapshot
    val victim = snap0.partitions.head
    val others = snap0.partitions.tail
    LstWriter.deleteFraction(spark, t, 0.5, Some(victim))
    val snap1 = t.currentSnapshot
    others.foreach { p =>
      assert(snap1.filesIn(Some(p)).map(_.path) == snap0.filesIn(Some(p)).map(_.path))
    }
    assert(snap1.filesIn(Some(victim)).map(_.path) != snap0.filesIn(Some(victim)).map(_.path))
  }

  test("deleteFraction is deterministic in table contents") {
    def keys(t: LstTable): Vector[Long] =
      LstReader.scan(spark, t).df.select("o_orderkey").collect().map(_.getLong(0)).sorted.toVector
    // every file, and a seeded half of them
    Seq(1.0, 0.5).foreach { fileSample =>
      val c = freshCatalog()
      val t1 = c.createTable("db1", "o1", None)
      val t2 = c.createTable("db1", "o2", None)
      LstWriter.append(spark, t1, tinyOrders(sf = 0.001), 8)
      LstWriter.append(spark, t2, tinyOrders(sf = 0.001), 8)
      LstWriter.deleteFraction(spark, t1, 0.2, None, fileSample)
      LstWriter.deleteFraction(spark, t2, 0.2, None, fileSample)
      val (k1, k2) = (keys(t1), keys(t2))
      if (k1 != k2) fail(s"fileSample $fileSample: the tables kept different rows (${k1.size} and ${k2.size})")
    }
  }

  test("deleteFraction retries through a conflict and succeeds") {
    val c = freshCatalog()
    val t = c.createTable("db1", "o", None)
    LstWriter.append(spark, t, tinyOrders(sf = 0.001), 4)
    // Sabotage: a racing overwrite lands between plan and commit. We emulate
    // by removing one file right before calling delete with a stale plan —
    // deleteFraction replans internally, so drive the race via a thread.
    val snap = t.currentSnapshot
    val racer = new Thread(() => {
      t.commit(snap.version, Overwrite(Vector(snap.files.head.path), Vector.empty))
    })
    racer.start(); racer.join()
    val res = LstWriter.deleteFraction(spark, t, 0.2, None)
    assert(res.succeeded)
  }

  test("a rewrite's files carry the version it commits, past an intervening append") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 4)
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    // a user append (v2) lands between the rewrite's staging and its commit
    val res = CompactionExecutor.compact(spark, c, cand, CompactionConfig(targetFileSizeBytes = 64L << 20),
      beforeCommit = _ => { LstWriter.append(spark, t, tinyOrders(sf = 0.0005, seed = 2), 1); () })
    assert(res.succeeded && res.conflicts == 0)
    val snap = t.currentSnapshot
    assert(snap.version == 3 && snap.operation == Snapshot.OpRewrite)
    val appended = t.snapshotAt(2).files.filterNot(f => t.snapshotAt(1).files.contains(f))
    val rewritten = snap.files.filterNot(f => t.snapshotAt(2).files.exists(_.path == f.path))
    assert(appended.size == 1 && appended.forall(_.addedVersion == 2L))
    assert(rewritten.nonEmpty && rewritten.forall(_.addedVersion == 3L), s"rewrite outputs: $rewritten")
  }

  test("appends accumulate files and bytes over multiple writes") {
    val c = freshCatalog()
    val t = c.createTable("db1", "o", None)
    val r1 = LstWriter.append(spark, t, tinyOrders(sf = 0.0005, seed = 1), 3)
    val r2 = LstWriter.append(spark, t, tinyOrders(sf = 0.0005, seed = 2), 3)
    assert(r1.addedFiles == 3 && r2.addedFiles == 3)
    assert(t.currentSnapshot.fileCount == 6)
    assert(t.currentVersion == 2)
  }

  test("stage drops empty output splits") {
    val c = freshCatalog()
    val t = c.createTable("db1", "o", None)
    val df = tinyOrders(sf = 0.0005).limit(3)
    // ask for far more files than rows: empty splits must be discarded
    val files = LstWriter.stage(spark, t, df, filesTarget = 16)
    assert(files.nonEmpty && files.size <= 3)
    assert(files.forall(_.recordCount > 0))
  }

  test("stage deletes its staging dir when it fails after the write job") {
    val c = freshCatalog()
    val t = c.createTable("db1", "o", None)
    // the write job succeeds; recording the schema afterwards fails
    Files.delete(t.root.resolve("meta").resolve("table.json"))
    intercept[IOException] {
      LstWriter.stage(spark, t, tinyOrders(sf = 0.0005), 4, partition = Some("p"))
    }
    assertNothingLeftBehind(t)
  }

  test("append deletes its staged files when the commit throws") {
    val c = freshCatalog()
    val t = c.createTable("db1", "o", None)
    // staging succeeds; the commit cannot read the base snapshot
    Files.delete(t.root.resolve("meta").resolve("v000000.json"))
    intercept[IOException](LstWriter.append(spark, t, tinyOrders(sf = 0.0005), 4))
    assert(!fileNames(t.dataDir).exists(_.endsWith(".parquet")), s"data/ holds ${fileNames(t.dataDir)}")
    assert(fileNames(t.tmpDir).isEmpty, s"tmp/ holds ${fileNames(t.tmpDir)}")
  }

  test("replace deletes the staged files of a conflicted attempt") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 4)
    val victim = Path.of(t.currentSnapshot.files.head.path).getFileName.toString
    val res = LstWriter.replace(spark, t, s => Vector(LstWriter.FileGroup(None, s.files, 1)),
      Overwrite, maxRetries = 0,
      beforeCommit = _ => { // a racing overwrite removes one of the replaced files
        val snap = t.currentSnapshot
        t.commit(snap.version, Overwrite(Vector(snap.files.head.path), Vector.empty))
      })
    assert(!res.succeeded && res.attempts == 1 && res.conflicts == 1)
    assert(fileNames(t.tmpDir).isEmpty, s"tmp/ holds ${fileNames(t.tmpDir)}")
    assert(unreferencedDataFiles(t) == Set(victim), "only the racer's removed file may be orphaned")
  }

  test("append, compaction and CoW delete fork no chmod process") {
    val c = freshCatalog()
    val t = c.createTable("db1", "li", Some("l_shipmonth"))
    val rec = new Recording()
    val dump = Files.createTempFile("stage-", ".jfr")
    try {
      rec.enable("jdk.ProcessStart")
      rec.start()
      LstWriter.append(spark, t, tinyLineitem(months = 2), 3)
      val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
      assert(CompactionExecutor.compact(spark, c, cand, CompactionConfig(64L << 20)).succeeded)
      assert(LstWriter.deleteFraction(spark, t, 0.2, None).succeeded)
      rec.stop()
      rec.dump(dump)
      val chmods = RecordingFile.readAllEvents(dump).asScala.map(_.getString("command"))
        .filter(_.split(" ").head.endsWith("chmod"))
      chmods.headOption.foreach(cmd => fail(s"${chmods.size} chmod processes, e.g. $cmd"))
    } finally {
      rec.close()
      Files.deleteIfExists(dump)
    }
  }

  test("adopted files keep Hadoop's default file mode") {
    val c = freshCatalog()
    val t = loadedLineitem(c, months = 2, filesPerPartition = 2)
    val expected = FsPermission.getFileDefault.applyUMask(
      FsPermission.getUMask(spark.sparkContext.hadoopConfiguration))
    t.currentSnapshot.files.foreach { f =>
      assert(StagingFileSystemSpec.mode(Path.of(f.path)) == expected.toShort.toInt,
        s"${f.path} is not $expected")
    }
  }
}
