package repro.workload

import repro.lst.LstFixture

class WorkloadRunnerSpec extends LstFixture {

  private def setup(nDbs: Int = 2, hours: Int = 2, seed: Long = 5) = {
    val c = freshCatalog()
    val w = new CabWorkload(nDbs, hours, seed, months = 3,
      appendSf = 0.0005, appendFiles = 3)
    w.setup(spark, c, initialSf = 0.001, initialLineitemFiles = 3, initialOrdersFiles = 4)
    (c, w, new WorkloadRunner(spark, c))
  }

  test("runHour executes all planned ops and returns metrics") {
    val (_, w, runner) = setup()
    val plan = w.plan.head
    val m = runner.runHour(plan)
    assert(m.hour == 1)
    assert(m.reads.size == plan.readQueries)
    assert(m.writes.size == plan.writeQueries)
    assert(m.writes.forall(_.succeeded))
  }

  test("appends grow the file count") {
    val (_, w, runner) = setup()
    val before = runner.totalFileCount
    runner.runHour(w.plan.head)
    assert(runner.totalFileCount > before)
  }

  test("read metrics carry scan counters and positive latency") {
    val (_, w, runner) = setup()
    val m = runner.runHour(w.plan.head)
    assert(m.reads.forall(_.filesScanned > 0))
    assert(m.reads.forall(_.bytesScanned > 0))
    assert(m.reads.forall(_.wallMs >= 0))
  }

  test("all three query shapes execute") {
    val (c, _, runner) = setup()
    val db = "cab_db00"
    (0 to 2).foreach { q =>
      val qm = runner.runRead(1, ReadOp(db, q))
      assert(qm.filesScanned > 0, s"query $q scanned nothing")
    }
  }

  test("runWrite rejects read ops") {
    val (_, _, runner) = setup()
    intercept[IllegalArgumentException](runner.runWrite(1, ReadOp("cab_db00", 0)))
  }

  test("delete op produces an overwrite with removed files") {
    val (c, _, runner) = setup()
    val wm = runner.runWrite(1, DeleteOp("cab_db00", "orders", 0.1, None, 1.0, 3L))
    assert(wm.kind == "delete" && wm.succeeded)
    assert(wm.removedFiles > 0)
  }

  test("an op that throws is recorded as failed and the hour goes on") {
    val (c, _, runner) = setup()
    c.dropTable("cab_db00", "orders")
    val m = runner.runHour(HourPlan(1, Map(
      // the orders rollup fails on the dropped table; the stream goes on
      "cab_db00" -> Vector(ReadOp("cab_db00", 1), ReadOp("cab_db00", 0),
        DeleteOp("cab_db00", "lineitem", 0.1, None, 1.0, 3L)),
      "cab_db01" -> Vector(ReadOp("cab_db01", 1), AppendOp("cab_db01", "orders", 0.0005, 2, 7L)))))
    assert(m.reads.filterNot(_.succeeded).map(r => (r.db, r.queryId)) == Vector(("cab_db00", 1)))
    assert(m.reads.size == 3 && m.writes.size == 2 && m.writes.forall(_.succeeded))
    assert(m.failedOps == 1)
    assert(m.latencyPercentiles.n == 2)
  }

  test("LatencySummary percentiles ordered") {
    val s = LatencySummary.of(Vector(5L, 1L, 9L, 3L, 7L))
    assert(s.min == 1 && s.max == 9 && s.n == 5)
    assert(s.min <= s.p25 && s.p25 <= s.p50 && s.p50 <= s.p75 && s.p75 <= s.max)
  }

  test("LatencySummary of empty input is zeroed") {
    assert(LatencySummary.of(Nil) == LatencySummary(0, 0, 0, 0, 0, 0))
  }

  test("two hours run back to back accumulate state") {
    val (_, w, runner) = setup(hours = 2)
    val m1 = runner.runHour(w.plan(0))
    val m2 = runner.runHour(w.plan(1))
    assert(m1.hour == 1 && m2.hour == 2)
    assert(m2.writes.forall(_.succeeded))
  }
}
