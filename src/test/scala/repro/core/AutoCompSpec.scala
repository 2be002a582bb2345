package repro.core

import java.nio.file.{Files, Path}

import repro.lst._

class AutoCompSpec extends LstFixture {

  private val cfg = CompactionConfig(targetFileSizeBytes = 64L << 20,
    executorMemoryGb = 8.0, rewriteBytesPerHour = 1e9)

  private def acfg(selector: Selector = Selector.TopK(100),
                   strategy: ScopeStrategy = ScopeStrategy.TableScope,
                   filters: Seq[CandidateFilter] = Seq(Filters.MinSmallFiles(2))) =
    AutoCompConfig(strategy, cfg, filters, Ranker.defaultMoop, selector,
      SchedulerConfig(tableParallelism = 2))

  test("end-to-end run compacts fragmented tables") {
    val c = freshCatalog()
    loadedOrders(c, db = "db1", name = "o1", files = 8)
    loadedOrders(c, db = "db2", name = "o2", files = 5)
    val report = new AutoComp(c).runOnce(spark, acfg())
    assert(report.generated == 2)
    assert(report.succeededUnits == 2)
    assert(report.filesRemoved == 13 && report.filesAdded == 2)
    assert(c.table("db1", "o1").currentSnapshot.fileCount == 1)
    assert(c.table("db2", "o2").currentSnapshot.fileCount == 1)
  }

  test("report carries phase counts, feedback, and cost totals") {
    val c = freshCatalog()
    loadedOrders(c, files = 6)
    val report = new AutoComp(c).runOnce(spark, acfg())
    assert(report.ranked == 1 && report.selected.size == 1)
    assert(report.results.map(r => (r.table.toString, r.removedFiles, r.addedFiles)) ==
      Vector(("db1.orders", 6, 1)))
    assert(report.bytesRewritten > 0L)
    assert(report.clusterConflicts == 0)
    assert(report.netFileReduction == 5)
  }

  test("filters prune candidates and are reported") {
    val c = freshCatalog()
    loadedOrders(c, name = "tiny", files = 1) // below MinSmallFiles(2)
    loadedOrders(c, name = "frag", files = 6)
    val report = new AutoComp(c).runOnce(spark, acfg())
    assert(report.generated == 2)
    assert(report.filteredOut == Map("minSmallFiles(2)" -> 1))
    assert(report.succeededUnits == 1)
    assert(c.table("db1", "tiny").currentSnapshot.fileCount == 1)
  }

  test("TopK limits work units per run (k work units, FR1)") {
    val c = freshCatalog()
    (1 to 4).foreach(i => loadedOrders(c, name = s"o$i", files = 4 + i))
    val report = new AutoComp(c).runOnce(spark, acfg(selector = Selector.TopK(2)))
    assert(report.selected.size == 2)
    // highest small-file counts picked first: o4 (8 files), o3 (7 files)
    assert(report.selected.map(_.candidate.table.name).toSet == Set("o4", "o3"))
  }

  test("hybrid strategy produces partition-level work units for lineitem") {
    val c = freshCatalog()
    loadedLineitem(c, months = 3, filesPerPartition = 3)
    loadedOrders(c, files = 5)
    val report = new AutoComp(c).runOnce(spark, acfg(strategy = ScopeStrategy.Hybrid))
    val partitions = report.selected.map(_.candidate.partition)
    assert(partitions.exists(_.isEmpty))
    assert(partitions.exists(_.isDefined))
    // every lineitem partition compacted to 1 file
    val li = c.table("db1", "lineitem").currentSnapshot
    li.partitions.foreach(p => assert(li.filesIn(Some(p)).size == 1))
  }

  test("runs are idempotent once the layout is healthy (§2 diminishing returns)") {
    val c = freshCatalog()
    loadedOrders(c, files = 6)
    val auto = new AutoComp(c)
    val r1 = auto.runOnce(spark, acfg())
    val r2 = auto.runOnce(spark, acfg())
    assert(r1.netFileReduction == 5)
    assert(r2.succeededUnits == 0 && r2.netFileReduction == 0)
    assert(r2.bytesRewritten == 0L)
  }

  test("budget selector bounds spend across the run") {
    val c = freshCatalog()
    (1 to 3).foreach(i => loadedOrders(c, name = s"o$i", files = 6))
    // budget fits roughly one table's rewrite
    val perTable = cfg.executorMemoryGb *
      (c.table("db1", "o1").currentSnapshot.totalBytes.toDouble / cfg.rewriteBytesPerHour)
    val report = new AutoComp(c).runOnce(spark,
      acfg(selector = Selector.BudgetGreedy(perTable * 1.5)))
    assert(report.selected.size == 1)
    assert(Traits.gbHr(report.bytesRewritten, cfg) <= perTable * 1.5)
  }

  test("deterministic selection across identical catalogs (NFR2)") {
    def build(): LstCatalog = {
      val c = freshCatalog()
      (1 to 3).foreach(i => loadedOrders(c, name = s"o$i", files = 3 + i, seed = i))
      c
    }
    val r1 = new AutoComp(build()).runOnce(spark, acfg(selector = Selector.TopK(2)))
    val r2 = new AutoComp(build()).runOnce(spark, acfg(selector = Selector.TopK(2)))
    assert(r1.selected.map(_.candidate.id) == r2.selected.map(_.candidate.id))
    assert(r1.selected.map(_.score) == r2.selected.map(_.score))
  }

  test("scheduler runs same-table partition units sequentially without conflicts") {
    val c = freshCatalog()
    loadedLineitem(c, sf = 0.002, months = 4, filesPerPartition = 3)
    val report = new AutoComp(c).runOnce(spark, acfg(strategy = ScopeStrategy.Hybrid))
    assert(report.clusterConflicts == 0)
    assert(report.failedUnits == 0)
  }

  test("a periodic tick is one runOnce call") {
    val c = freshCatalog()
    loadedOrders(c, files = 5)
    assert(new AutoComp(c).runOnce(spark, acfg()).succeededUnits == 1)
  }

  test("one failing work unit does not abort the tick") {
    val c = freshCatalog()
    loadedOrders(c, db = "db1", name = "o1", files = 6)
    loadedOrders(c, db = "db2", name = "o2", files = 6)
    val observed = CandidateGenerator.generate(c, ScopeStrategy.TableScope)
      .map(cand => (cand, Traits.observe(cand.files.map(_.sizeBytes), cfg.targetFileSizeBytes)))
    val selected = Selector.TopK(2).select(Ranker.defaultMoop.rank(observed, cfg), cfg)
    assert(selected.size == 2)
    c.dropTable("db1", "o1")
    val results = new CompactionScheduler(SchedulerConfig(tableParallelism = 2))
      .run(spark, c, selected, cfg)
    assert(results.map(r => (r.table.name, r.succeeded)) == Vector("o1" -> false, "o2" -> true))
    assert(results.head.attempts == 1 && !results.head.skipped)
    assert(c.table("db2", "o2").currentSnapshot.fileCount == 1)
  }

  test("a table dropped before the act phase fails only its own unit") {
    val c = freshCatalog()
    loadedOrders(c, db = "db1", name = "o1", files = 6)
    loadedOrders(c, db = "db2", name = "o2", files = 6)
    val dropO1 = new CandidateFilter {
      val name = "dropO1"
      def keep(cand: Candidate, stats: CandidateStats): Boolean = {
        if (cand.table == TableRef("db1", "o1")) c.dropTable("db1", "o1")
        true
      }
    }
    val report = new AutoComp(c).runOnce(spark, acfg(filters = Seq(dropO1)))
    assert(report.results.map(r => (r.table.name, r.succeeded)) == Vector("o1" -> false, "o2" -> true))
    assert(c.table("db2", "o2").currentSnapshot.fileCount == 1)
  }

  test("a failed work unit reports the time it ran") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 6)
    val observed = CandidateGenerator.generate(c, ScopeStrategy.TableScope)
      .map(cand => (cand, Traits.observe(cand.files.map(_.sizeBytes), cfg.targetFileSizeBytes)))
    val selected = Selector.TopK(1).select(Ranker.defaultMoop.rank(observed, cfg), cfg)
    // the snapshot still lists the file, so the rewrite fails at scan execution
    Files.delete(Path.of(t.currentSnapshot.files.head.path))
    val results = new CompactionScheduler(SchedulerConfig()).run(spark, c, selected, cfg)
    assert(results.size == 1)
    val r = results.head
    assert(!r.succeeded)
    assert(r.wallMs > 0L, s"failed unit reported ${r.wallMs} ms")
  }

  test("OptimizeAfterWriteHook fires when trait crosses threshold") {
    val c = freshCatalog()
    val t = c.createTable("db1", "o", None)
    val hook = new OptimizeAfterWriteHook(c,
      TriggerRule(Traits.FileCountReduction, threshold = 4.0), cfg)
    LstWriter.append(spark, t, tinyOrders(sf = 0.0005, seed = 1), 2)
    assert(hook.onWrite(spark, "db1", "o").isEmpty) // 2 small files < 4
    LstWriter.append(spark, t, tinyOrders(sf = 0.0005, seed = 2), 3)
    val res = hook.onWrite(spark, "db1", "o") // 5 small files ≥ 4
    assert(res.exists(_.succeeded))
    assert(hook.triggered == 1)
    assert(t.currentSnapshot.fileCount == 1)
  }

  test("OptimizeAfterWriteHook ratio mode") {
    val c = freshCatalog()
    val t = c.createTable("db1", "o", None)
    LstWriter.append(spark, t, tinyOrders(sf = 0.0005), 5)
    val hook = new OptimizeAfterWriteHook(c,
      TriggerRule(Traits.FileCountReduction, threshold = 0.5, asRatioOfFiles = true), cfg)
    // all 5 files are small → ratio 1.0 ≥ 0.5 → fires
    assert(hook.onWrite(spark, "db1", "o").isDefined)
  }
}
