package repro.workload

import scala.jdk.CollectionConverters._

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

  /** `SynthData` seeds `rand` per Spark partition, so the loaded bytes
    * depend on the session's parallelism: parallelism -> for each table of
    * a 3-database set-up, in `allTables` order, (files, records, sorted file
    * sizes). Recorded with the databases loaded one after another.
    */
  private val setupPins: Map[Int, Vector[(Int, Long, Vector[Long])]] = {
    def db(li: Vector[Long], ord: Vector[Long]) = Vector((4, 6000L, li), (3, 1500L, ord))
    Map(
      1 -> (db(Vector(34832, 34983, 36651, 36737), Vector(9899, 9915, 9946)) ++
        db(Vector(34795, 34907, 36672, 36943), Vector(9878, 9896, 9933)) ++
        db(Vector(33576, 35276, 36359, 38059), Vector(9851, 9889, 9925))),
      2 -> (db(Vector(35186, 35410, 36299, 36410), Vector(9805, 9905, 9907)) ++
        db(Vector(34856, 34875, 36723, 36796), Vector(9859, 9895, 9908)) ++
        db(Vector(35655, 35712, 35841, 35849), Vector(9877, 9904, 9908))),
      3 -> (db(Vector(34704, 35323, 36266, 36852), Vector(9880, 9892, 9916)) ++
        db(Vector(33598, 35173, 36457, 38000), Vector(9873, 9875, 9926)) ++
        db(Vector(35047, 35308, 36291, 36473), Vector(9791, 9914, 9926))),
      4 -> (db(Vector(34891, 35142, 36430, 36753), Vector(9833, 9893, 9914)) ++
        db(Vector(34461, 35106, 36444, 37046), Vector(9862, 9885, 9902)) ++
        db(Vector(34917, 35116, 36507, 36570), Vector(9820, 9935, 9990))),
      8 -> (db(Vector(34735, 34963, 36509, 36840), Vector(9898, 9934, 9949)) ++
        db(Vector(33990, 35523, 36183, 37678), Vector(9871, 9876, 9883)) ++
        db(Vector(34684, 34737, 36750, 36956), Vector(9865, 9921, 9933))))
  }

  test("setup builds the pinned catalog") {
    val c = freshCatalog()
    new CabWorkload(3, 1, seed = 11, months = 2)
      .setup(spark, c, initialSf = 0.001, initialLineitemFiles = 2, initialOrdersFiles = 3)
    val got = c.allTables.map { ref =>
      val s = c.table(ref).currentSnapshot
      (s.fileCount, s.totalRecords, s.files.map(_.sizeBytes).sorted)
    }
    val par = spark.sparkContext.defaultParallelism
    val want = setupPins.getOrElse(par, fail(s"no pinned values for parallelism $par " +
      s"(recorded: ${setupPins.keys.toVector.sorted}); this run: $got"))
    assert(got == want)
  }

  test("a failing database load fails setup after the others have loaded") {
    val c = freshCatalog()
    val w = new CabWorkload(3, 1, seed = 11, months = 2)
    c.createTable(w.dbName(1), "lineitem", Some("l_shipmonth"))
    val e = intercept[IllegalArgumentException](
      w.setup(spark, c, initialSf = 0.001, initialLineitemFiles = 2, initialOrdersFiles = 3))
    assert(e.getMessage.contains("table already exists"))
    Seq(0, 2).map(w.dbName).foreach { db =>
      val li = c.table(db, "lineitem").currentSnapshot
      val ord = c.table(db, "orders").currentSnapshot
      assert((li.fileCount, li.totalRecords, ord.fileCount, ord.totalRecords) == ((4, 6000L, 3, 1500L)), db)
    }
    val setupThreads = Thread.getAllStackTraces.keySet.asScala.filter(_.getName.startsWith("cab-setup-"))
    setupThreads.foreach(_.join(5000))
    assert(setupThreads.forall(!_.isAlive), s"set-up threads still running: $setupThreads")
  }
}
