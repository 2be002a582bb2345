package repro.core

import java.nio.file.{Files, Path}

import org.apache.spark.sql.functions._

import repro.Oracle
import repro.lst._

class CompactionExecutorSpec extends LstFixture {

  /** Target chosen so the tiny test files all count as "small". */
  private val cfg = CompactionConfig(targetFileSizeBytes = 64L << 20,
    executorMemoryGb = 8.0, rewriteBytesPerHour = 1e9)

  test("table-scope compaction merges small files of an unpartitioned table") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 8)
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    val res = CompactionExecutor.compact(spark, c, cand, cfg)
    assert(res.succeeded && !res.skipped)
    assert(res.removedFiles == 8)
    assert(res.addedFiles == 1)
    assert(t.currentSnapshot.fileCount == 1)
    assert(t.currentSnapshot.operation == Snapshot.OpRewrite)
  }

  test("a one-file rewrite is one Spark job that writes no shuffle") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 8)
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    var res: CompactionResult = null
    val jobs = jobsDuring { res = CompactionExecutor.compact(spark, c, cand, cfg) }
    assert(res.succeeded && res.addedFiles == 1)
    assert(jobs.count == 1, s"one-file rewrite ran ${jobs.count} jobs")
    assert(jobs.shuffleBytesWritten == 0L)
  }

  test("a group that bin-packs into two outputs is rewritten as two files") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 8)
    val before = t.currentSnapshot
    // every file is below target, and the group's bytes need two outputs
    val target = (before.totalBytes * 0.6).toLong
    assert(before.files.forall(_.sizeBytes < target))
    assert(Traits.packedOutputs(8, before.totalBytes, target).contains(2L))
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    val res = CompactionExecutor.compact(spark, c, cand, cfg.copy(targetFileSizeBytes = target))
    assert(res.succeeded && res.removedFiles == 8 && res.addedFiles == 2)
    assert(t.currentSnapshot.fileCount == 2)
    assert(t.currentSnapshot.totalRecords == before.totalRecords)
  }

  test("compaction preserves data exactly (oracle-checked)") {
    val c = freshCatalog()
    val df = tinyOrders(sf = 0.001)
    val t = c.createTable("db1", "o", None)
    LstWriter.append(spark, t, df, 7)
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    CompactionExecutor.compact(spark, c, cand, cfg)
    val got = LstReader.scan(spark, t).df
      .groupBy(col("o_orderstatus") as "st")
      .agg(count(lit(1)) as "n", round(sum(col("o_totalprice")), 2) as "total")
      .select(col("st"), col("n"), col("total"))
    Oracle.assertEquivalent(got,
      "SELECT o_orderstatus AS st, count(*) AS n, " +
        "round(sum(CAST(o_totalprice AS DOUBLE)), 2) AS total FROM orders GROUP BY o_orderstatus",
      "orders" -> df)
  }

  test("compaction never crosses partitions (§7)") {
    val c = freshCatalog()
    val t = loadedLineitem(c, sf = 0.002, months = 3, filesPerPartition = 4)
    val before = t.currentSnapshot
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    val res = CompactionExecutor.compact(spark, c, cand, cfg)
    assert(res.succeeded)
    val after = t.currentSnapshot
    // one output file per partition, not one global file
    assert(after.partitions == before.partitions)
    after.partitions.foreach { p =>
      assert(after.filesIn(Some(p)).size == 1)
      val rows = spark.read.parquet(after.filesIn(Some(p)).head.path)
        .select(date_format(col("l_shipdate"), "yyyy-MM")).distinct()
        .collect().map(_.getString(0)).toSet
      assert(rows == Set(p), s"partition $p leaked rows from $rows")
    }
    // record counts preserved
    assert(after.totalRecords == before.totalRecords)
  }

  test("partition-scope candidate compacts only its partition") {
    val c = freshCatalog()
    val t = loadedLineitem(c, months = 3, filesPerPartition = 3)
    val before = t.currentSnapshot
    val cands = CandidateGenerator.forTable(t, ScopeStrategy.Hybrid)
    val victim = cands.head
    CompactionExecutor.compact(spark, c, victim, cfg)
    val after = t.currentSnapshot
    assert(after.filesIn(victim.partition).size == 1)
    before.partitions.filterNot(victim.partition.contains).foreach { p =>
      assert(after.filesIn(Some(p)).map(_.path) == before.filesIn(Some(p)).map(_.path))
    }
  }

  test("files at/above target are untouched (bin-pack semantics)") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 6)
    val sizes = t.currentSnapshot.files.map(_.sizeBytes)
    // pick a target between min and max so some files are 'large'
    val target = sizes.sorted.apply(sizes.size / 2)
    val tight = cfg.copy(targetFileSizeBytes = target)
    val big = t.currentSnapshot.files.filter(_.sizeBytes >= target).map(_.path).toSet
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    val res = CompactionExecutor.compact(spark, c, cand, tight)
    assert(res.succeeded)
    val after = t.currentSnapshot.files.map(_.path).toSet
    assert(big.subsetOf(after), "large files must survive compaction untouched")
  }

  test("skip when nothing can shrink (single small file)") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 1)
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    val res = CompactionExecutor.compact(spark, c, cand, cfg)
    assert(res.skipped && res.succeeded)
    assert(res.removedFiles == 0 && res.gbHr == 0.0)
  }

  test("skip on empty candidate") {
    val c = freshCatalog()
    val t = c.createTable("db1", "empty", None)
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    val res = CompactionExecutor.compact(spark, c, cand, cfg)
    assert(res.skipped)
  }

  test("gbHr model follows rewritten bytes") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 5)
    val bytes = t.currentSnapshot.totalBytes
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    val res = CompactionExecutor.compact(spark, c, cand, cfg)
    assert(res.bytesRewritten == bytes)
    assert(math.abs(res.gbHr - cfg.executorMemoryGb * bytes / cfg.rewriteBytesPerHour) < 1e-12)
  }

  test("stale candidate is re-planned without conflict (files gone before start)") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 6)
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    // a user overwrite removes one candidate file BEFORE compaction starts:
    // the executor re-plans against the fresh snapshot, so no conflict
    t.commit(t.currentVersion, Overwrite(Vector(cand.files.head.path), Vector.empty))
    val res = CompactionExecutor.compact(spark, c, cand, cfg, maxRetries = 3)
    assert(res.succeeded && res.conflicts == 0)
    assert(res.removedFiles == 5)
    assert(t.currentSnapshot.fileCount == 1)
  }

  test("mid-flight overwrite causes a cluster conflict, then retry succeeds") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 6)
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    val res = CompactionExecutor.compact(spark, c, cand, cfg, maxRetries = 3,
      beforeCommit = attempt =>
        if (attempt == 1) { // racing user RMW lands inside the commit window
          val snap = t.currentSnapshot
          t.commit(snap.version, Overwrite(Vector(snap.files.head.path), Vector.empty))
        })
    assert(res.succeeded)
    assert(res.conflicts == 1)
    assert(res.attempts == 2)
    assert(t.currentSnapshot.fileCount == 1)
  }

  test("gives up after maxRetries under sustained conflicts") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 8)
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    // every attempt loses the race: a user RMW always lands in the window
    val res = CompactionExecutor.compact(spark, c, cand, cfg, maxRetries = 2,
      beforeCommit = _ => {
        val snap = t.currentSnapshot
        t.commit(snap.version, Overwrite(Vector(snap.files.head.path), Vector.empty))
      })
    assert(!res.succeeded)
    assert(res.attempts == 3) // 1 + 2 retries
    assert(res.conflicts == 3)
    assert(res.removedFiles == 0 && res.addedFiles == 0)
  }

  test("conflict cleanup removes orphaned staged files") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 6)
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    CompactionExecutor.compact(spark, c, cand, cfg, maxRetries = 3,
      beforeCommit = attempt =>
        if (attempt == 1) {
          val snap = t.currentSnapshot
          t.commit(snap.version, Overwrite(Vector(snap.files.head.path), Vector.empty))
        })
    // Unreferenced files on disk = 1 overwritten victim + 5 rewrite victims
    // (historical snapshots keep them). Crucially NOT more: the conflicted
    // attempt's staged outputs were cleaned up eagerly.
    assert(unreferencedDataFiles(t).size == 6, "only metadata-removed files should be orphaned")
  }

  test("an exception before the commit leaves no staged files behind") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 6)
    val before = t.currentSnapshot
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    intercept[RuntimeException] {
      CompactionExecutor.compact(spark, c, cand, cfg,
        beforeCommit = _ => throw new RuntimeException("injected failure"))
    }
    assert(t.currentSnapshot == before)
    assertNothingLeftBehind(t)
  }

  test("a failing partition group deletes the groups staged before it") {
    val c = freshCatalog()
    val t = loadedLineitem(c, months = 3)
    val snap = t.currentSnapshot
    // groups are rewritten in partition order: the first one is staged
    // before the second one's read fails
    Files.delete(Path.of(snap.filesIn(Some(snap.partitions(1))).head.path))
    val cand = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    intercept[Exception](CompactionExecutor.compact(spark, c, cand, cfg))
    assert(t.currentVersion == snap.version)
    assertNothingLeftBehind(t)
  }
}
