package repro.tune

import repro.core.{CompactionConfig, Traits, TriggerRule}
import repro.util.DetRng

/** Analytic LST-Bench workload model driving the Figure-9 experiments.
  *
  * The paper tunes thresholds over multi-hour cluster runs; each Figure-9
  * iteration cost hours of a 16-node cluster. We replace the cluster with a
  * calibrated cost model over the same state machine: per-table file counts
  * evolve through write phases, queries cost `QueryBaseSec +
  * perFileSec × filesScanned` (the scan-amplification relationship the
  * real substrate exhibits — validated against actual Spark scans in
  * `WorkloadModelSpec`), and compaction costs rewrite-bytes/throughput,
  * scaled by `contention` when it shares the cluster with queries.
  *
  * Workload archetypes (LST-Bench):
  *   - `wp1`  — TPC-DS WP1: long-running, frequent data modifications on
  *     partitioned tables, compaction competes with queries (contention 1).
  *   - `wp3`  — TPC-DS WP3: decoupled read/write clusters — compaction
  *     overlaps with reads, contention ≈ 0.15.
  *   - `tpch` — TPC-H: NON-partitioned tables and a dominant data-
  *     modification phase; compaction must rewrite whole tables.
  */
final case class WorkloadModel(
    name: String,
    nTables: Int,
    partitioned: Boolean, // false: compaction rewrites whole tables
    queriesPerPhase: Int,
    writesPerPhase: Int,
    filesPerWrite: Int,
    perFileSec: Double,
    rewriteSecPerGb: Double,
    contention: Double,
    initialSmallFiles: Int,
    initialLargeFiles: Int) {
  import WorkloadModel._

  /** End-to-end duration (seconds) of the workload with an
    * optimize-after-write compaction trigger firing at `threshold` on the
    * named trait (§6.3; names as in [[TriggerRule.named]]). `threshold > 1`
    * effectively disables auto-compaction (the "default" configuration in
    * Fig. 9). Per-table state is (smallFiles, largeFiles): small files have
    * `FileSizeMb`; large files sit at target.
    */
  def evaluate(traitName: String, threshold: Double): Double = {
    // The op sequence is a property of the WORKLOAD, not of the trigger
    // being tuned — seed it independently of traitName so different traits
    // are compared on identical runs.
    val rule = TriggerRule.named(traitName, threshold)
    val rng = new DetRng(Seed)
    val small = Array.fill(nTables)(initialSmallFiles)
    val large = Array.fill(nTables)(initialLargeFiles)
    var duration = 0.0

    def fires(t: Int): Boolean = {
      val sizes = Seq.fill(small(t))((FileSizeMb * (1L << 20)).toLong) ++
        Seq.fill(large(t))(cfg.targetFileSizeBytes)
      rule.fires(Traits.observe(sizes, cfg.targetFileSizeBytes), cfg)
    }

    def compact(t: Int): Unit = {
      // bin-pack small files to target when that shrinks them; non-partitioned tables (the TPC-H
      // case) must rewrite the WHOLE table — Iceberg's rewrite reshuffles
      // the one big unpartitioned layout (§6.3 observation (i))
      val smallGb = small(t) * FileSizeMb / 1024.0
      Traits.packedOutputs(small(t), (smallGb * (1L << 30)).toLong, cfg.targetFileSizeBytes).foreach { out =>
        val rewriteGb =
          if (partitioned) smallGb
          else smallGb + large(t) * (cfg.targetFileSizeBytes.toDouble / (1L << 30))
        duration += rewriteGb * rewriteSecPerGb * contention
        large(t) += out.toInt
        small(t) = 0
      }
    }

    (1 to Phases).foreach { _ =>
      // query sub-phase
      (1 to queriesPerPhase).foreach { _ =>
        val t = rng.nextInt(nTables)
        duration += QueryBaseSec + perFileSec * (small(t) + large(t))
      }
      // data-modification sub-phase with optimize-after-write hook
      (1 to writesPerPhase).foreach { _ =>
        val t = rng.nextInt(nTables)
        small(t) += filesPerWrite
        duration += 2.0 + filesPerWrite * 0.05 // write cost itself
        if (fires(t)) compact(t)
      }
    }
    duration
  }
}

object WorkloadModel {
  private val Seed = 11L
  private val cfg = CompactionConfig(512L << 20)
  /** Write/query phases per run, the same in every archetype. */
  private val Phases = 10
  /** Size of each file a write adds. */
  private val FileSizeMb = 16.0
  /** Fixed cost of a query before its per-file scan cost. */
  private val QueryBaseSec = 4.0

  /** TPC-DS WP1-like: fragmentation grows fast, queries dominate → the
    * right threshold pays for itself (paper: up to 2× query-time gain).
    */
  def wp1: WorkloadModel = WorkloadModel(
    name = "tpcds-wp1", nTables = 12, partitioned = true,
    queriesPerPhase = 60, writesPerPhase = 25, filesPerWrite = 40,
    perFileSec = 0.05, rewriteSecPerGb = 1.2,
    contention = 1.0, initialSmallFiles = 100, initialLargeFiles = 96)

  /** TPC-DS WP3-like: decoupled read/write clusters — compaction barely
    * contends with queries.
    */
  def wp3: WorkloadModel = wp1.copy(name = "tpcds-wp3", contention = 0.15)

  /** TPC-H-like: NON-partitioned 100 GB-scale tables (200 × 512 MB), a
    * dominant data-modification phase and few queries with mild scan
    * amplification → any trigger forces repeated whole-table rewrites that
    * cost far more than they save (§6.3 observation (i)).
    */
  def tpch: WorkloadModel = WorkloadModel(
    name = "tpch", nTables = 8, partitioned = false,
    queriesPerPhase = 5, writesPerPhase = 60, filesPerWrite = 10,
    perFileSec = 0.01, rewriteSecPerGb = 2.0,
    contention = 1.0, initialSmallFiles = 40, initialLargeFiles = 200)
}
