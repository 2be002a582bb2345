package repro.core

import repro.lst._

class FiltersSpec extends LstFixture {

  private val cfg = CompactionConfig(targetFileSizeBytes = 1000L,
    executorMemoryGb = 8.0, rewriteBytesPerHour = 1e6)

  private def cand(name: String, sizes: Seq[Long]): (Candidate, CandidateStats) = {
    val files = sizes.zipWithIndex.map { case (s, i) => DataFile(s"/$name/$i", None, s, 1L, 1L) }.toVector
    val c = Candidate(TableRef("d", name), None, files)
    (c, Traits.observe(c.files.map(_.sizeBytes), cfg.targetFileSizeBytes))
  }

  test("MinSmallFiles keeps candidates with enough small files") {
    val f = Filters.MinSmallFiles(3)
    assert(!f.keep(cand("a", Seq(10, 10))._1, cand("a", Seq(10, 10))._2))
    assert(f.keep(cand("b", Seq(10, 10, 10))._1, cand("b", Seq(10, 10, 10))._2))
  }

  test("MaxComputeCost drops candidates beyond the per-task budget") {
    val cheap = cand("a", Seq(100L))
    val pricey = cand("b", Seq.fill(100)(999L))
    val f = Filters.MaxComputeCost(0.01, cfg)
    assert(f.keep(cheap._1, cheap._2))
    assert(!f.keep(pricey._1, pricey._2))
  }

  test("NoWriteInLastVersions skips candidates with fresh files") {
    val c = freshCatalog()
    val t = c.createTable("db1", "o", None)
    LstWriter.append(spark, t, tinyOrders(sf = 0.0005, seed = 1), 2) // v1
    LstWriter.append(spark, t, tinyOrders(sf = 0.0005, seed = 2), 2) // v2
    val candv = CandidateGenerator.forTable(t, ScopeStrategy.TableScope).head
    val stats = Traits.observe(candv.files.map(_.sizeBytes), 1000L)
    assert(!Filters.NoWriteInLastVersions(c, 1).keep(candv, stats)) // v2 files are fresh
    // with window 0 nothing is "fresh"
    assert(Filters.NoWriteInLastVersions(c, 0).keep(candv, stats))
  }

  test("Filters.apply returns kept pool and per-filter rejection counts") {
    val pool = Vector(cand("a", Seq(10)), cand("b", Seq(10, 10, 10)), cand("c", Seq(2000, 2000)))
    val (kept, rejected) = Filters.apply(pool, Seq(Filters.MinSmallFiles(2)))
    assert(kept.map(_._1.table.name) == Vector("b"))
    assert(rejected == Map("minSmallFiles(2)" -> 2))
  }

  test("Filters.apply with no filters keeps everything") {
    val pool = Vector(cand("a", Seq(10)))
    val (kept, rejected) = Filters.apply(pool, Seq.empty)
    assert(kept == pool && rejected.isEmpty)
  }

  test("first rejecting filter is charged (ordered evaluation)") {
    val pool = Vector(cand("a", Seq(10)))
    val (_, rejected) = Filters.apply(pool,
      Seq(Filters.MinSmallFiles(5), Filters.MaxComputeCost(0.0, cfg)))
    assert(rejected.keySet == Set("minSmallFiles(5)"))
  }
}
