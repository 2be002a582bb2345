package repro.exp

import repro.fleet._

/** Schedules and configurations reproducing the §7 production results
  * (Figures 10 & 11). Fleet scale matches the deployment (~35K tables);
  * the rewrite-throughput and candidate-filter constants in
  * [[FleetSimulator]]'s companion are calibrated so the 226 TBHr budget
  * binds at k in the paper's ≈2500 ballpark (see EXPERIMENTS.md).
  */
object FleetExperiments {

  /** Production-scale configuration for the Figure 10/11 runs. */
  def prodCfg(nTables: Int = 35000): FleetConfig =
    FleetConfig(nTables = nTables, maxCandidateTbHr = 5.0)

  /** Fig 10a: 6 weeks, manual top-100 for weeks 1-2, AutoComp top-10 from
    * week 3 (the paper's transition point).
    */
  def runFig10a(cfg: FleetConfig = prodCfg()): Vector[DayMetrics] =
    new FleetSimulator(cfg).run(42,
      Map(1 -> Policy.ManualFixed(100), 15 -> Policy.AutoTopK(10)))

  /** Fig 10b: fixed k=10, then dynamic k under a 226 TBHr budget. The paper
    * observes this transition in deployment week 22, long after the initial
    * backlog cleared — so we warm the fleet up under the budget policy for
    * 30 days, run fixed k=10 for a week, switch to the budget for a week,
    * and report the final 14 days. The budgeted deployment also enforces a
    * tighter per-task cost ceiling (2 TBHr) than the ad-hoc phase.
    */
  def runFig10b(cfg: FleetConfig = prodCfg().copy(maxCandidateTbHr = 2.0)): Vector[DayMetrics] =
    new FleetSimulator(cfg).run(44,
      Map(1 -> Policy.AutoBudget(226.0), 31 -> Policy.AutoTopK(10),
        38 -> Policy.AutoBudget(226.0)))
      .drop(30)

  /** Fig 10c: 12 weeks — no maintenance, then manual, then auto-budget at
    * the deployment's peak daily capacity (600 TBHr, §2). The fleet-wide
    * DECLINE requires compaction throughput ≥ organic growth, so this run
    * lifts the per-task ceiling (flagged mega-tables get handled too).
    */
  def runFig10c(cfg: FleetConfig = prodCfg().copy(maxCandidateTbHr = Double.MaxValue))
      : Vector[DayMetrics] =
    new FleetSimulator(cfg).run(84,
      Map(1 -> Policy.NoComp, 15 -> Policy.ManualFixed(100), 43 -> Policy.AutoBudget(600.0)))

  /** Fig 11b: 12 "months" (30-day): no compaction months 1-3, manual from
    * month 4, auto from month 9 — the paper's deployment timeline. The
    * month-4 cliff in the paper came from a small set of extremely
    * fragmented tables (avg 42M files each) dominating NameNode traffic,
    * so this run uses a more top-heavy initial fleet.
    */
  def runFig11b(cfg: FleetConfig = prodCfg(nTables = 20000).copy(
      maxCandidateTbHr = Double.MaxValue,
      initialSmallFilesScale = 3000.0)): Vector[DayMetrics] =
    new FleetSimulator(cfg).run(360,
      Map(1 -> Policy.NoComp, 91 -> Policy.ManualFixed(100), 241 -> Policy.AutoBudget(600.0)))

  /** Fig 11a: 30 days under auto-compaction, tracking the tables AutoComp
    * ever selects; returns (day, mean live files across the cohort, whether
    * any cohort table was compacted that day) — the sawtooth data.
    */
  def runFig11a(cfg: FleetConfig = prodCfg(nTables = 10000))
      : Vector[(Int, Double, Boolean)] = {
    val selectedEver = scala.collection.mutable.Set[Int]()
    val perDay = scala.collection.mutable.ArrayBuffer[(Int, Map[Int, Long], Set[Int])]()
    new FleetSimulator(cfg).run(30, Map(1 -> Policy.AutoTopK(200)),
      onDay = (day, tables, picked) => {
        picked.foreach(t => selectedEver += t.id)
        perDay += ((day, tables.map(t => t.id -> t.totalFiles).toMap,
          picked.map(_.id).toSet))
      })
    val cohort = selectedEver.toSet
    perDay.toVector.map { case (day, files, picked) =>
      val cohortFiles = cohort.toVector.map(id => files(id).toDouble)
      (day, cohortFiles.sum / math.max(1, cohortFiles.size),
        picked.exists(cohort))
    }
  }
}
