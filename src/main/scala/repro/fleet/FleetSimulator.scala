package repro.fleet

import repro.core._
import repro.lst.TableRef
import repro.util.DetRng

/** Mutable per-table state in the fleet simulation. File sizes are tracked
  * as (count, mean MB) aggregates — at 35K-table scale the per-file
  * inventory is irrelevant to the *policy* results the paper reports.
  *
  * @param writeRatePerDay  steady small-file creation (trickle writes)
  * @param scanRatePerDay   scan-heavy queries/day touching every live file
  *                         (the HDFS open()-calls driver of Fig. 11)
  */
final case class FleetTable(
    db: Int,
    id: Int,
    var smallFiles: Long,
    var largeFiles: Long,
    var avgSmallFileMb: Double,
    var writeRatePerDay: Double,
    scanRatePerDay: Double) {
  def totalFiles: Long = smallFiles + largeFiles
  def smallBytes: Long = (smallFiles * avgSmallFileMb * (1L << 20)).toLong
}

/** Compaction policy active on a given day (§7). */
sealed trait Policy { def name: String }
object Policy {
  /** No maintenance at all (pre-month-4 state in Fig. 11b). */
  case object NoComp extends Policy { val name = "nocomp" }
  /** Ad-hoc manual strategy: a FIXED set of k tables (chosen by
    * fragmentation when the policy activates) recompacted daily.
    */
  final case class ManualFixed(k: Int) extends Policy { val name = s"manual-$k" }
  /** AutoComp with quota-weighted MOOP ranking and fixed top-k. */
  final case class AutoTopK(k: Int) extends Policy { val name = s"auto-$k" }
  /** AutoComp with dynamic k bounded by a daily TBHr budget. */
  final case class AutoBudget(tbHr: Double) extends Policy { val name = s"auto-budget-$tbHr" }
}

/** One simulated day's fleet-level metrics. */
final case class DayMetrics(
    day: Int,
    policy: String,
    kCompacted: Int,
    filesReduced: Long,
    tbHrSpent: Double,
    totalFiles: Long,
    totalSmallFiles: Long,
    openCalls: Long)

/** The fleet knobs the §7 figures vary; everything else about the fleet
  * is a calibrated constant in [[FleetSimulator]]'s companion (see
  * EXPERIMENTS.md for the calibration notes).
  *
  * @param initialSmallFilesScale mean of the initial per-table small-file
  *   counts (heavy-tailed)
  * @param maxCandidateTbHr per-candidate compute-cost ceiling in TBHr
  *   (§4.2: candidates whose cost exceeds the allocation are
  *   "automatically discarded or flagged for further review")
  */
final case class FleetConfig(
    nTables: Int = 35000,
    initialSmallFilesScale: Double = 800.0,
    maxCandidateTbHr: Double = Double.MaxValue)

/** Day-granularity simulation of the LinkedIn OpenHouse deployment (§7).
  * The auto policies decide with the real `repro.core` pipeline, making the
  * same calls as [[AutoComp.runOnce]]: the [[Filters]] of §4.1–4.2,
  * quota-weighted MOOP ranking and a [[Selector]], applied to synthesized
  * fleet statistics; only growth and the act phase are modeled analytically.
  */
final class FleetSimulator(cfg: FleetConfig) {
  import FleetSimulator._

  private val filters = Seq(Filters.MinSmallFiles(MinSmallFilesCandidate),
    Filters.MaxComputeCost(cfg.maxCandidateTbHr * 1024, CompactionCfg))

  /** Bounded Pareto draw (heavy tail, capped to keep the sim stable). */
  private def pareto(rng: DetRng, scale: Double, cap: Double): Double =
    math.min(cap, scale / math.pow(1.0 - rng.nextDouble(), 1.0 / ParetoAlpha) - scale + 1.0)

  /** Deterministic initial fleet. Fragmentation is CORRELATED with write
    * activity (active tables are the fragmented ones), which is what keeps
    * the manual fixed set regrowing in §7 rather than going quiet after its
    * first cleanup.
    */
  def initialFleet(): Vector[FleetTable] = {
    val rng = new DetRng(Seed)
    (0 until cfg.nTables).toVector.map { i =>
      val writeRate = pareto(rng.split(i + 4000000), 30.0, 2e4)
      val activity = writeRate / 30.0
      val small = (pareto(rng.split(i), cfg.initialSmallFilesScale, 1e5) * activity).toLong
      FleetTable(
        db = rng.split(i + 1000000).nextInt(NDbs),
        id = i,
        smallFiles = small,
        largeFiles = 50 + rng.split(i + 2000000).nextInt(400),
        avgSmallFileMb = 4.0 + rng.split(i + 3000000).nextDouble() * 60.0,
        writeRatePerDay = writeRate,
        scanRatePerDay = 0.2 + rng.split(i + 5000000).nextDouble() * 2.8)
    }
  }

  /** Cumulative writeRate^1.5 weights: fragmentation bursts (backfills,
    * CDC storms, migrations) hit ACTIVE tables far more often than idle
    * ones.
    */
  private def burstWeights(tables: Vector[FleetTable]): Array[Double] = {
    val cum = new Array[Double](tables.size)
    var acc = 0.0
    var i = 0
    while (i < tables.size) {
      acc += math.pow(tables(i).writeRatePerDay, 1.5)
      cum(i) = acc
      i += 1
    }
    cum
  }

  private def grow(tables: Vector[FleetTable], day: Int): Unit = {
    val rng = new DetRng(DetRng.combine(Seed, day.toLong, 0xfeedL))
    // churn: some workflows change hands/shape — activity re-drawn
    val churnRng = rng.split(0x4151L)
    tables.foreach { t =>
      if (churnRng.nextDouble() < WriteRateChurnPerDay)
        t.writeRatePerDay = pareto(churnRng, 30.0, 2e4)
    }
    tables.foreach(t => t.smallFiles += math.round(t.writeRatePerDay))
    val cumWeights = burstWeights(tables)
    val total = cumWeights.last
    (0 until BurstsPerDay).foreach { b =>
      val r = rng.split(b)
      val u = r.nextDouble() * total
      val idx = {
        val i = java.util.Arrays.binarySearch(cumWeights, u)
        if (i >= 0) i else -(i + 1)
      }
      val t = tables(math.min(idx, tables.size - 1))
      t.smallFiles += pareto(r, BurstScale, BurstScale * BurstCapFactor).toLong
    }
  }

  /** Observe phase: a table's statistics, its large files counted at target. */
  private def observe(t: FleetTable): CandidateStats = CandidateStats(
    fileCount = t.totalFiles.toInt.max(0),
    smallFileCount = t.smallFiles.toInt.max(0),
    totalBytes = t.smallBytes + t.largeFiles * CompactionCfg.targetFileSizeBytes,
    smallBytes = t.smallBytes,
    entropy = 0.0)

  /** Apply the act phase to one table: bin-pack its small files to target,
    * if that shrinks them. Returns (fileReduction, tbHr).
    */
  private def compactTable(t: FleetTable): (Long, Double) =
    Traits.packedOutputs(t.smallFiles, t.smallBytes, CompactionCfg.targetFileSizeBytes)
      .fold((0L, 0.0)) { produced =>
        val reduction = t.smallFiles - produced
        val tbHr = Traits.gbHr(t.smallBytes, CompactionCfg) / 1024.0
        t.largeFiles += produced
        t.smallFiles = 0
        (reduction, tbHr)
      }

  /** Run `days` days under a policy schedule: `schedule(d)` is the policy
    * that becomes active on day d (1-based); days without an entry keep the
    * previous policy. Returns one [[DayMetrics]] per day.
    *
    * @param onDay observer invoked after each day's compaction with
    *   (day, fleet state, tables picked today) — used by the Fig. 11a bench
    *   to extract per-table sawtooth trajectories.
    */
  def run(days: Int, schedule: Map[Int, Policy],
          onDay: (Int, Vector[FleetTable], Vector[FleetTable]) => Unit = (_, _, _) => ())
      : Vector[DayMetrics] = {
    require(schedule.contains(1), "schedule must define the day-1 policy")
    val tables = initialFleet()
    // one candidate per table, named as in a catalog; MOOP breaks score
    // ties by these names
    val candidates = tables.map(t => Candidate(TableRef(s"db${t.db}", s"t${t.id}"), None, Vector.empty))
    val byRef = candidates.map(_.table).zip(tables).toMap
    var policy: Policy = schedule(1)
    var manualSet: Vector[FleetTable] = Vector.empty

    // the production decide phase, with the §7 quota weight w1
    def decide(selector: Selector): Vector[FleetTable] = {
      val usedByDb: Map[Int, Long] =
        tables.groupBy(_.db).map { case (db, ts) => db -> ts.map(_.totalFiles).sum }
      def w1(c: Candidate): Double = Ranker.quotaWeight(usedByDb(byRef(c.table).db), DbQuotaObjects)
      val (kept, _) = Filters.apply(candidates.zip(tables.map(observe)), filters)
      val ranked = Ranker.defaultMoop.copy(weightOverride = Some(w1)).rank(kept, CompactionCfg)
      selector.select(ranked, CompactionCfg).map(sc => byRef(sc.candidate.table))
    }

    def activate(p: Policy): Unit = {
      policy = p
      p match {
        case Policy.ManualFixed(k) =>
          // infra engineers pick the currently most fragmented tables — once
          manualSet = tables.sortBy(-_.smallFiles).take(k)
        case _ => ()
      }
    }
    activate(policy)

    (1 to days).toVector.map { day =>
      schedule.get(day).filter(_ => day > 1).foreach(activate)
      grow(tables, day)

      val picked: Vector[FleetTable] = policy match {
        case Policy.NoComp         => Vector.empty
        case Policy.ManualFixed(_) => manualSet
        case Policy.AutoTopK(k)    => decide(Selector.TopK(k))
        case Policy.AutoBudget(tb) => decide(Selector.BudgetGreedy(tb * 1024.0))
      }

      val outcomes = picked.map(compactTable)
      onDay(day, tables, picked)
      val openCalls = tables.iterator.map(t => t.scanRatePerDay * t.totalFiles).sum.toLong
      DayMetrics(
        day = day,
        policy = policy.name,
        kCompacted = picked.size,
        filesReduced = outcomes.map(_._1).sum,
        tbHrSpent = outcomes.map(_._2).sum,
        totalFiles = tables.iterator.map(_.totalFiles).sum,
        totalSmallFiles = tables.iterator.map(_.smallFiles).sum,
        openCalls = openCalls)
    }
  }
}

/** The fleet's calibrated constants: fit once so fleet-level magnitudes
  * land in the paper's ballpark (§7: ~35K tables, millions of files reduced
  * weekly, 226 TBHr ⇒ k≈2500), then left untouched. See EXPERIMENTS.md.
  */
object FleetSimulator {
  private val Seed = 7L
  /** Pareto tail exponent for initial fragmentation & burst sizes. */
  private val ParetoAlpha = 1.3
  private val NDbs = 60
  /** Sustained rewrite throughput of one compaction job (GBHr model). */
  private val RewriteTbPerHour = 0.01
  /** Fragmentation bursts/day fleet-wide (migrations, backfills, CDC). */
  private val BurstsPerDay = 300
  private val BurstScale = 5000.0
  /** Cap on a single burst (multiples of `BurstScale`). */
  private val BurstCapFactor = 60.0
  /** Object quota of each database, the `Total` of the §7 weight w1. */
  private val DbQuotaObjects = 2000000L
  /** Observe-phase filter: tables below this small-file count are not
    * candidates (the OpenHouse "too small to matter" rule), which is what
    * makes a TBHr budget BIND at a finite k.
    */
  private val MinSmallFilesCandidate = 1000
  /** Daily probability that a table's write activity is re-drawn: the §7
    * churn that makes a FIXED manual set go stale.
    */
  private val WriteRateChurnPerDay = 0.03

  private val CompactionCfg = CompactionConfig(targetFileSizeBytes = 512L << 20,
    executorMemoryGb = 16.0, rewriteBytesPerHour = RewriteTbPerHour * (1L << 40))
}
