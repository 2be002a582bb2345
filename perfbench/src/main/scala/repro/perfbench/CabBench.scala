package repro.perfbench

import java.util.concurrent.{Callable, Executors, TimeUnit}
import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.core.CompactionResult
import repro.lst.LstCatalog
import repro.util.DetRng
import repro.workload._

/** One client op as the benchmark saw it. */
final case class OpRec(hour: Int, stream: String, kind: String, startNs: Long, endNs: Long,
                       ok: Boolean, conflicts: Int, filesScanned: Int) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** What a run of CAB hours produced. */
final case class PassData(
    ops: Vector[OpRec],
    ticks: Vector[TickOut],
    hourMs: Vector[Double],
    runMs: Double,
    streamBusyMs: Double,
    barrierWaitMs: Double) {
  def reads: Vector[OpRec] = ops.filter(_.kind == "read")
  def writes: Vector[OpRec] = ops.filter(_.kind != "read")
  def results: Vector[CompactionResult] = ticks.flatMap(_.results)
  /** Reads, writes and compaction units attempted; a tick that threw counts
    * as one failed unit.
    */
  def attempted: Int = ops.size + results.size + ticks.count(_.threw)
  def failed: Int = ops.count(!_.ok) + results.count(!_.succeeded) + ticks.count(_.threw)
}

object PassData {
  def concat(ps: Seq[PassData]): PassData = PassData(ps.flatMap(_.ops).toVector, ps.flatMap(_.ticks).toVector,
    ps.flatMap(_.hourMs).toVector, ps.map(_.runMs).sum, ps.map(_.streamBusyMs).sum, ps.map(_.barrierWaitMs).sum)
}

/** `cab`: CAB streams over one database per archetype (4 databases, so 4
  * closed-loop client streams), with a hybrid MOOP tick selecting every
  * work unit running concurrently from hour 2, as in the paper's §6 runs.
  * Reads, CDC writes and compaction compete for the same tables and cores.
  */
object CabBench {
  val Dbs = 4
  val Months = 6
  /** Nominal wall time of one hour once warm, used to size a run. */
  val HourSeconds = 4.5
  val Setups = 3
  val MaxWarmupPasses = 2

  /** Seed of the CAB plan: which ops each stream issues each hour. It is
    * fixed because with about 40 reads a run, the query mix a plan seed
    * draws moved the read median by a quarter between seeds; the run's
    * seed draws all the data instead.
    */
  val PlanSeed = 42L

  def workload(seed: Long, hours: Int): CabWorkload = new CabWorkload(Dbs, hours, seed, months = Months)

  /** The fixed plan's hours, with every append and delete drawing its rows
    * from `dataSeed`.
    */
  def plan(planSeed: Long, dataSeed: Long, hours: Int): Vector[HourPlan] =
    workload(planSeed, hours).plan.map { h =>
      h.copy(opsByDb = h.opsByDb.map { case (db, ops) =>
        db -> ops.map {
          case a: AppendOp => a.copy(seed = DetRng.combine(dataSeed, a.seed))
          case d: DeleteOp => d.copy(seed = DetRng.combine(dataSeed, d.seed))
          case r           => r
        }
      })
    }

  /** The initial load: 4 small files per lineitem partition, 8 per orders
    * table, far below the 512 KB target.
    */
  def setup(spark: SparkSession, wl: CabWorkload, catalog: LstCatalog): Unit =
    wl.setup(spark, catalog, initialLineitemFiles = 4, initialOrdersFiles = 8)

  def freshCatalog(a: Args, tag: String): LstCatalog = {
    val dir = a.work.resolve(s"catalog-$tag")
    Fs.deleteTree(dir)
    new LstCatalog(dir)
  }

  /** Run the plans' hours: per hour, one thread per stream issues its ops in
    * order through `WorkloadRunner.runRead`/`runWrite` (a failed op is
    * counted, not thrown), while the tick runs on its own thread; the hour
    * ends when all have finished.
    */
  def runHours(spark: SparkSession, catalog: LstCatalog, plans: Vector[HourPlan], tr: Tracer): PassData = {
    val runner = new WorkloadRunner(spark, catalog)
    val ops = mutable.ArrayBuffer[OpRec]()
    val ticks = mutable.ArrayBuffer[TickOut]()
    val hourMs = mutable.ArrayBuffer[Double]()
    var busy = 0.0
    var waitMs = 0.0
    val pool = Executors.newFixedThreadPool(Dbs + 1)
    val t0 = System.nanoTime()
    try tr.span("run", "workload") {
      val runSpan = tr.currentSpan
      plans.foreach { plan =>
        tr.span(s"hour ${plan.hour}", "workload", runSpan) {
          val hourSpan = tr.currentSpan
          val h0 = System.nanoTime()
          val tick = if (plan.hour >= 2) Some(pool.submit(new Callable[TickOut] {
            def call(): TickOut = Tick.run(spark, catalog, Plan.acfg, tr, hourSpan)
          })) else None
          val streams = plan.opsByDb.toVector.sortBy(_._1).map { case (db, dbOps) =>
            pool.submit(new Callable[(Vector[OpRec], Long)] {
              def call(): (Vector[OpRec], Long) = tr.span(s"stream $db", "workload", hourSpan) {
                (dbOps.map(op => runOp(runner, plan.hour, db, op, tr)), System.nanoTime())
              }
            })
          }
          val done = streams.map(_.get())
          ticks ++= tick.map(_.get())
          val h1 = System.nanoTime()
          done.foreach { case (recs, end) =>
            ops ++= recs
            busy += recs.map(_.ms).sum
            waitMs += (h1 - end) / 1e6
          }
          hourMs += (h1 - h0) / 1e6
        }
      }
    } finally {
      pool.shutdown()
      pool.awaitTermination(10, TimeUnit.MINUTES)
    }
    PassData(ops.toVector, ticks.toVector, hourMs.toVector, Clock.ms(t0), busy, waitMs)
  }

  private def runOp(runner: WorkloadRunner, hour: Int, db: String, op: Op, tr: Tracer): OpRec = {
    val kind = op match {
      case _: ReadOp   => "read"
      case _: AppendOp => "append"
      case _           => "delete"
    }
    val t0 = System.nanoTime()
    try op match {
      case r: ReadOp =>
        val q = tr.span(s"read q${r.queryId} $db", "lst.read")(runner.runRead(hour, r))
        OpRec(hour, db, kind, t0, System.nanoTime(), ok = true, 0, q.filesScanned)
      case w =>
        val m = tr.span(s"$kind $db", "lst.write")(runner.runWrite(hour, w))
        OpRec(hour, db, kind, t0, System.nanoTime(), m.succeeded, m.conflicts, 0)
    } catch {
      case NonFatal(e) =>
        Log.info(s"op failed: $kind $db hour $hour: $e")
        OpRec(hour, db, kind, t0, System.nanoTime(), ok = false, 0, 0)
    }
  }

  /** Warm-up: a scratch catalog from other seeds; the second hour of
    * another plan (its first with a tick) repeated until the mean op time
    * stops falling.
    */
  private def warmUp(a: Args, spark: SparkSession, r: Report): Unit = {
    val warm = freshCatalog(a, "warmup")
    setup(spark, workload(a.seed + 7919L, 2), warm)
    val hour = plan(PlanSeed + 1, a.seed + 7919L, 2)(1)
    Passes.warmUp(r, MaxWarmupPasses) { n =>
      val p = runHours(spark, warm, Vector(hour), new Tracer(false, None))
      val mean = Stats.mean(p.ops.map(_.ms))
      Log.info(f"warm-up pass $n: ${p.ops.size} ops, mean $mean%.0f ms, hour ${p.runMs}%.0f ms")
      mean
    }
    Fs.deleteTree(warm.root)
  }

  /** The end-to-end metrics that `fleet` lacks. They go to the
    * progress lines and the record, not the result line, because every
    * result-line metric must exist on every workload.
    */
  private def cabOnlyMetrics(r: Report, p: PassData, s: Storage): Unit = {
    r.latency("read", p.reads.map(_.ms))
    r.latency("write", p.writes.map(_.ms))
    val tickS = p.ticks.map(_.wallMs).sum / 1000
    r.extra("rewrite_mb_per_s", p.results.map(_.bytesRewritten).sum / 1048576.0 / tickS, "MB/s")
    r.extra("space_amp", s.spaceAmp, "ratio", "bytes under the catalog over live data bytes")
  }

  /** Every file a snapshot references exists and manifest row counts equal
    * Spark's; given a database, the oracle queries on it too.
    */
  private def checks(r: Report, label: String, spark: SparkSession, catalog: LstCatalog, s: Storage,
                     oracleDb: Option[String]): Unit = {
    r.check(s"$label.snapshot_files_exist", s.missingFiles.isEmpty,
      s"${s.missingFiles.size} missing, e.g. ${s.missingFiles.take(2).mkString("; ")}")
    Checks.rowCounts(r, label, spark, catalog)
    oracleDb.foreach(db => Checks.oracle(r, label, spark, catalog, db))
  }

  def run(a: Args, spark: SparkSession, r: Report): Unit = {
    val hours = math.max(3, math.round(a.seconds / HourSeconds).toInt)
    val wl = workload(a.seed, hours)
    val plans = plan(PlanSeed, a.seed, hours)
    val none = new Tracer(false, None)
    val jvm = new JvmMeter
    warmUp(a, spark, r)

    if (!a.trace) {
      // set up several times; the last catalog is the one measured
      val setups = (1 to Setups).map { i =>
        val c = freshCatalog(a, s"setup$i")
        val (_, ms) = Clock.timed(setup(spark, wl, c))
        if (i < Setups) Fs.deleteTree(c.root)
        ms
      }
      Log.info(s"set-ups: ${setups.map(_.round).mkString(", ")} ms")
      val catalog = new LstCatalog(a.work.resolve(s"catalog-setup$Setups"))

      jvm.start()
      val pass = runHours(spark, catalog, plans, none)
      val (_, _, heapMb) = jvm.stop()
      Log.info(f"timed: ${pass.reads.size} reads, ${pass.writes.size} writes, ${pass.results.size} units " +
        f"over $hours hours in ${pass.runMs}%.0f ms")
      val storage = Storage.scan(catalog)
      r.resultMetrics(setups, pass.runMs, "read query", pass.reads.map(_.ms), pass.ticks.map(_.wallMs),
        storage.dataFilesLive, heapMb)
      cabOnlyMetrics(r, pass, storage)
      checks(r, "cab", spark, catalog, storage, oracleDb = Some(wl.dbName(0)))
      r.attempted = pass.attempted
      r.failed = pass.failed
    } else {
      // Traced run: the same hours on two catalogs, one traced and one not,
      // alternating which goes first.
      val tr = new Tracer(true, Some(spark.sparkContext))
      val tCat = freshCatalog(a, "traced")
      tr.span("setup", "setup")(setup(spark, wl, tCat))
      val uCat = freshCatalog(a, "untraced")
      setup(spark, wl, uCat)
      jvm.start()
      val pairs = plans.map { h =>
        Passes.alternate(h.hour)(runHours(spark, tCat, Vector(h), tr), runHours(spark, uCat, Vector(h), none))
      }
      val gc = jvm.stop()
      val tp = PassData.concat(pairs.map(_._1))
      val up = PassData.concat(pairs.map(_._2))
      Log.info(f"traced ${tp.runMs}%.0f ms, untraced ${up.runMs}%.0f ms over $hours hours")
      val ts = Storage.scan(tCat)
      val us = Storage.scan(uCat)
      cabOnlyMetrics(r, up, us)
      checks(r, "cab.traced", spark, tCat, ts, oracleDb = Some(wl.dbName(0)))
      checks(r, "cab.untraced", spark, uCat, us, oracleDb = None)
      Layers.zero(r)
      Layers.spark(r, tp, ts, tr, spark)
      Layers.common(r, tr, tp.runMs, up.runMs, gc)
      tr.dump(a.work.resolve("spans.jsonl"))
      r.attempted = tp.attempted + up.attempted
      r.failed = tp.failed + up.failed
    }
  }
}
