package repro.core

import org.apache.spark.sql.SparkSession

import repro.lst.LstCatalog

/** End-to-end AutoComp configuration: one value per OODA phase. */
final case class AutoCompConfig(
    strategy: ScopeStrategy,
    cfg: CompactionConfig,
    filters: Seq[CandidateFilter],
    ranker: Ranker,
    selector: Selector,
    scheduler: SchedulerConfig = SchedulerConfig())

/** One run's full, explainable record (NFR2): counts at every phase
  * boundary plus per-work-unit results, each carrying its act outcome.
  */
final case class AutoCompReport(
    generated: Int,
    filteredOut: Map[String, Int],
    ranked: Int,
    selected: Vector[ScoredCandidate],
    results: Vector[CompactionResult]) {
  def filesRemoved: Int = results.map(_.removedFiles).sum
  def filesAdded: Int = results.map(_.addedFiles).sum
  def netFileReduction: Int = filesRemoved - filesAdded
  def clusterConflicts: Int = results.map(_.conflicts).sum
  def bytesRewritten: Long = results.map(_.bytesRewritten).sum
  def succeededUnits: Int = results.count(r => r.succeeded && !r.skipped)
  def failedUnits: Int = results.count(!_.succeeded)
}

/** The AutoComp framework (Figure 4): observe → orient → decide → act with
  * optional inter-phase filters. Stateless across runs — every run
  * re-observes the catalog, so it serves both the periodic ("pull") and
  * post-write ("push") execution modes (§5). No table is read after the
  * act phase, so one failed work unit cannot abort the run.
  */
final class AutoComp(catalog: LstCatalog) {

  def runOnce(spark: SparkSession, acfg: AutoCompConfig): AutoCompReport = {
    // Candidate generation
    val candidates = CandidateGenerator.generate(catalog, acfg.strategy)
    // Observe: statistics per candidate
    val observed = candidates.map(c =>
      (c, Traits.observe(c.files.map(_.sizeBytes), acfg.cfg.targetFileSizeBytes)))
    // Inter-phase filtering
    val (kept, rejected) = Filters.apply(observed, acfg.filters)
    // Orient + decide: trait computation lives inside the ranker so that
    // normalization sees exactly the surviving pool
    val ranked = acfg.ranker.rank(kept, acfg.cfg)
    val selected = acfg.selector.select(ranked, acfg.cfg)
    // Act
    val results = new CompactionScheduler(acfg.scheduler).run(spark, catalog, selected, acfg.cfg)
    AutoCompReport(candidates.size, rejected, ranked.size, selected, results)
  }
}

/** Post-write ("push") trigger (§5 Optimize-After-Write): evaluated after
  * every write commit; when the configured [[TriggerRule]] fires the
  * affected table is compacted immediately (unconstrained mode — §6.3 uses
  * exactly this with small-file-count and entropy traits). Only tests
  * drive this hook; the Fig 9 sweep runs the same [[TriggerRule]] inside
  * the analytic [[repro.tune.WorkloadModel]].
  */
final class OptimizeAfterWriteHook(catalog: LstCatalog, rule: TriggerRule, cfg: CompactionConfig) {

  @volatile var triggered: Int = 0

  /** Returns the compaction result when the trigger fired, None otherwise. */
  def onWrite(spark: SparkSession, db: String, name: String): Option[CompactionResult] = {
    val table = catalog.table(db, name)
    val cand = CandidateGenerator.forTable(table, ScopeStrategy.TableScope).head
    if (rule.fires(Traits.observe(cand.files.map(_.sizeBytes), cfg.targetFileSizeBytes), cfg)) {
      triggered += 1
      Some(CompactionExecutor.compact(spark, catalog, cand, cfg))
    } else None
  }
}
