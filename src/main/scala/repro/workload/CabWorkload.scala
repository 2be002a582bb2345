package repro.workload

import org.apache.spark.sql.SparkSession

import repro.SynthData
import repro.lst.{LstCatalog, LstWriter}
import repro.util.{DetRng, Parallel}

/** One logical operation of a CAB stream. */
sealed trait Op {
  def db: String
  def isWrite: Boolean
}

/** Incremental insert producing `filesTarget` (per-partition) small files —
  * the untuned-writer pattern of §2.
  */
final case class AppendOp(db: String, table: String, sf: Double,
                          filesTarget: Int, seed: Long) extends Op {
  val isWrite = true
}

/** CoW delete of a row fraction (partition-scoped for lineitem). `seed`
  * draws which `fileSample` of the files [[repro.lst.LstWriter.deleteFraction]]
  * rewrites; the rows it drops are picked by a hash of their contents.
  */
final case class DeleteOp(db: String, table: String, rowFraction: Double,
                          partition: Option[String], fileSample: Double,
                          seed: Long) extends Op {
  val isWrite = true
}

/** Read query; `queryId` picks one of the TPC-H-lite query shapes. */
final case class ReadOp(db: String, queryId: Int) extends Op {
  val isWrite = false
}

/** The operations of one simulated hour, per database stream (streams of
  * different databases execute concurrently; within a stream, in order).
  */
final case class HourPlan(hour: Int, opsByDb: Map[String, Vector[Op]]) {
  def allOps: Vector[Op] = opsByDb.values.toVector.flatten
  def writeQueries: Int = allOps.count(_.isWrite)
  def readQueries: Int = allOps.count(!_.isWrite)
}

/** CAB-gen analogue (§6 "Design of Experimental Workloads"): deterministic
  * per-hour query streams over `nDbs` TPC-H-lite databases, mixing the four
  * archetypes the CAB paper models:
  *
  *   - `dashboard`  — constant demand with sinusoidal variation (reads);
  *   - `interactive` — short random read bursts;
  *   - `batch`      — a large maintenance burst (deletes + inserts) at
  *     `burstHour`, reproducing the paper's hour-4 write spike;
  *   - `hourly`     — predictable hourly append jobs.
  *
  * Every database hosts a partitioned LINEITEM (by ship month) and an
  * unpartitioned ORDERS — the paper's mixed update-pattern setup. All
  * randomness flows from `seed` (NFR2).
  */
final class CabWorkload(
    val nDbs: Int,
    val hours: Int,
    val seed: Long,
    val months: Int = 6,
    val appendSf: Double = 0.002,
    val appendFiles: Int = 6) {
  require(nDbs >= 1 && hours >= 1)

  /** The hour of the batch archetype's maintenance burst. */
  val burstHour: Int = 4

  def dbName(i: Int): String = f"cab_db$i%02d"
  def archetype(i: Int): String =
    Vector("dashboard", "interactive", "batch", "hourly")(i % 4)

  /** Shipping months available for partition-scoped deletes. */
  def monthOf(idx: Int): String = f"1992-${(idx % months) + 1}%02d"

  /** The full deterministic plan, one entry per hour (hour is 1-based). */
  lazy val plan: Vector[HourPlan] = (1 to hours).toVector.map { h =>
    val ops = (0 until nDbs).map { i =>
      val db = dbName(i)
      val rng = new DetRng(DetRng.combine(seed, i.toLong, h.toLong))
      val stream = archetype(i) match {
        case "dashboard" =>
          // sinusoidal read demand + a trickle append per hour; every other
          // hour a CDC-style update (delete+insert on one partition) — the
          // paper extended CAB so BOTH lineitem and orders receive updates
          val reads = math.max(1,
            math.round(4 * (1 + 0.5 * math.sin(2 * math.Pi * h / 4.0))).toInt)
          // CDC update first — in continuous production traffic updates
          // coincide with the hourly compaction tick, so the compressed
          // hour puts them at the start where the rewrites are in flight
          val cdc: Vector[Op] = Vector(
            DeleteOp(db, "lineitem", 0.03, Some(monthOf(rng.nextInt(months))), 1.0, rng.nextLong()))
          cdc ++ Vector.fill(reads)(ReadOp(db, rng.nextInt(3))) :+
            AppendOp(db, "lineitem", appendSf, appendFiles, rng.nextLong())
        case "interactive" =>
          // bursty: 50% idle hours, else a burst of 3-8 reads; occasionally
          // an ad-hoc correction (CDC update on one partition)
          val reads =
            if (rng.nextDouble() < 0.5) Vector(ReadOp(db, rng.nextInt(3)))
            else Vector.fill(3 + rng.nextInt(6))(ReadOp(db, rng.nextInt(3)))
          val fix: Vector[Op] =
            if (rng.nextDouble() < 0.3)
              Vector(DeleteOp(db, "lineitem", 0.02, Some(monthOf(rng.nextInt(months))), 1.0, rng.nextLong()))
            else Vector.empty
          fix ++ reads
        case "batch" =>
          // maintenance burst at burstHour: deletes + bulk inserts on both
          // tables; a light read probe otherwise
          if (h == burstHour) Vector(
            DeleteOp(db, "lineitem", 0.10, Some(monthOf(rng.nextInt(months))), 1.0, rng.nextLong()),
            DeleteOp(db, "orders", 0.05, None, 0.5, rng.nextLong()),
            AppendOp(db, "lineitem", appendSf * 3, appendFiles * 2, rng.nextLong()),
            AppendOp(db, "orders", appendSf * 3, appendFiles * 2, rng.nextLong()),
            ReadOp(db, 2))
          else Vector(ReadOp(db, rng.nextInt(3)),
            AppendOp(db, "orders", appendSf / 2, math.max(2, appendFiles / 2), rng.nextLong()))
        case "hourly" =>
          // predictable hourly job: append to both tables (sometimes with an
          // orders CDC update), then verify reads
          val cdc: Vector[Op] =
            if (rng.nextDouble() < 0.7)
              Vector(DeleteOp(db, "orders", 0.02, None, 0.3, rng.nextLong()))
            else Vector.empty
          cdc ++ Vector(
            AppendOp(db, "lineitem", appendSf, appendFiles, rng.nextLong()),
            AppendOp(db, "orders", appendSf, appendFiles, rng.nextLong()),
            ReadOp(db, 0), ReadOp(db, 1))
      }
      db -> stream
    }.toMap
    HourPlan(h, ops)
  }

  /** Create the databases and perform the initial (badly tuned) bulk load:
    * many small files per table, the §6.1 starting condition. The databases
    * are independent, so each one loads on its own thread, as the hour's
    * streams run. If a load throws, the other databases still load, and then
    * the first failure is rethrown.
    */
  def setup(spark: SparkSession, catalog: LstCatalog,
            initialSf: Double = 0.004, initialLineitemFiles: Int = 8,
            initialOrdersFiles: Int = 16): Unit = {
    def load(i: Int): Unit = {
      val db = dbName(i)
      catalog.createDb(db)
      val li = catalog.createTable(db, "lineitem", Some("l_shipmonth"))
      val ord = catalog.createTable(db, "orders", None)
      val liSeed = DetRng.combine(seed, i.toLong, 101L)
      val ordSeed = DetRng.combine(seed, i.toLong, 202L)
      LstWriter.append(spark, li,
        SynthData.lineitemMonthly(spark, initialSf, months, liSeed),
        initialLineitemFiles)
      LstWriter.append(spark, ord,
        SynthData.orders(spark, initialSf, ordSeed), initialOrdersFiles)
    }
    Parallel.all("cab-setup", nDbs, (0 until nDbs).map(i => () => load(i)))
  }
}
