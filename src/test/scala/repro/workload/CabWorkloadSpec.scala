package repro.workload

import repro.lst.LstFixture

class CabWorkloadSpec extends LstFixture {

  private def wl(nDbs: Int = 4, hours: Int = 5, seed: Long = 1) =
    new CabWorkload(nDbs, hours, seed)

  test("plan is deterministic in seed") {
    assert(wl(seed = 7).plan == wl(seed = 7).plan)
  }

  test("different seeds give different plans") {
    assert(wl(seed = 1).plan != wl(seed = 2).plan)
  }

  test("plan covers every hour and db") {
    val w = wl(nDbs = 4, hours = 3)
    assert(w.plan.map(_.hour) == Vector(1, 2, 3))
    w.plan.foreach(h => assert(h.opsByDb.keySet == (0 until 4).map(w.dbName).toSet))
  }

  test("archetypes assigned round-robin") {
    val w = wl(nDbs = 8)
    assert(w.archetype(0) == "dashboard" && w.archetype(4) == "dashboard")
    assert(w.archetype(2) == "batch" && w.archetype(3) == "hourly")
  }

  test("batch archetype bursts at burstHour with deletes and bulk inserts") {
    val w = wl(nDbs = 4, hours = 5)
    val batchDb = w.dbName(2)
    val burst = w.plan(w.burstHour - 1).opsByDb(batchDb)
    assert(burst.count(_.isInstanceOf[DeleteOp]) == 2)
    assert(burst.count(_.isInstanceOf[AppendOp]) == 2)
    val calm = w.plan(0).opsByDb(batchDb)
    assert(calm.count(_.isInstanceOf[DeleteOp]) == 0)
  }

  test("write spike at burst hour (paper's hour-4 pattern)") {
    val w = wl(nDbs = 8, hours = 5)
    val writesPerHour = w.plan.map(_.writeQueries)
    assert(writesPerHour(w.burstHour - 1) == writesPerHour.max)
  }

  test("dashboard read demand is sinusoidal (varies across hours)") {
    val w = wl(nDbs = 1, hours = 4)
    val reads = w.plan.map(_.opsByDb(w.dbName(0)).count(!_.isWrite))
    assert(reads.distinct.size > 1)
  }

  test("every op references tables that setup creates") {
    val w = wl(nDbs = 4, hours = 2)
    val tables = Set("lineitem", "orders")
    w.plan.flatMap(_.allOps).foreach {
      case a: AppendOp => assert(tables(a.table))
      case d: DeleteOp => assert(tables(d.table))
      case _: ReadOp   => ()
    }
  }

  test("delete partitions are within the configured month range") {
    val w = wl(nDbs = 8, hours = 5)
    w.plan.flatMap(_.allOps).collect { case d: DeleteOp => d }.flatMap(_.partition)
      .foreach { p =>
        val m = p.stripPrefix("1992-").toInt
        assert(m >= 1 && m <= w.months, s"bad partition $p")
      }
  }

  test("setup creates fragmented tables at the requested file counts") {
    val c = freshCatalog()
    val w = new CabWorkload(2, 2, seed = 3, months = 3)
    w.setup(spark, c, initialSf = 0.001, initialLineitemFiles = 4, initialOrdersFiles = 6)
    assert(c.listDbs.size == 2)
    val li = c.table(w.dbName(0), "lineitem").currentSnapshot
    val ord = c.table(w.dbName(0), "orders").currentSnapshot
    assert(ord.fileCount == 6)
    assert(li.partitions.size == 3)
    li.partitions.foreach(p => assert(li.filesIn(Some(p)).size == 4))
  }
}
