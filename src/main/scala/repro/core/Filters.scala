package repro.core

import repro.lst.LstCatalog

/** A scored candidate flowing from the orient phase into decide/act. */
final case class ScoredCandidate(
    candidate: Candidate,
    stats: CandidateStats,
    traits: Map[String, Double],
    score: Double)

/** Optional filters applied between OODA phases (Figure 4) to prune the
  * exhaustively generated pool. Each filter returns true to KEEP the
  * candidate; `name` makes rejections explainable (NFR2).
  */
trait CandidateFilter {
  def name: String
  def keep(c: Candidate, stats: CandidateStats): Boolean
}

object Filters {

  /** Skip candidates without enough below-target files to bother: a
    * candidate whose small files already bin-pack into the same number of
    * files gains nothing.
    */
  final case class MinSmallFiles(n: Int) extends CandidateFilter {
    val name = s"minSmallFiles($n)"
    def keep(c: Candidate, stats: CandidateStats): Boolean = stats.smallFileCount >= n
  }

  /** Avoid compacting candidates written very recently (conflict avoidance,
    * §3.3): skip if any file was added within the last `versions` commits.
    */
  final case class NoWriteInLastVersions(catalog: LstCatalog, versions: Int)
      extends CandidateFilter {
    val name = s"noWriteInLastVersions($versions)"
    def keep(c: Candidate, stats: CandidateStats): Boolean = {
      val cur = catalog.table(c.table).currentVersion
      !c.files.exists(_.addedVersion > cur - versions)
    }
  }

  /** Budget guardrail (§4.2): drop candidates whose estimated compute cost
    * alone exceeds the per-task ceiling.
    */
  final case class MaxComputeCost(maxGbHr: Double, cfg: CompactionConfig)
      extends CandidateFilter {
    val name = s"maxComputeCost($maxGbHr)"
    def keep(c: Candidate, stats: CandidateStats): Boolean =
      Traits.ComputeCostGbHr.compute(stats, cfg) <= maxGbHr
  }

  /** Apply filters in order; returns (kept, rejectionCounts by filter). */
  def apply(pool: Vector[(Candidate, CandidateStats)], filters: Seq[CandidateFilter])
      : (Vector[(Candidate, CandidateStats)], Map[String, Int]) = {
    var rejected = Map.empty[String, Int].withDefaultValue(0)
    val kept = pool.filter { case (c, s) =>
      filters.find(f => !f.keep(c, s)) match {
        case Some(f) => rejected = rejected.updated(f.name, rejected(f.name) + 1); false
        case None    => true
      }
    }
    (kept, rejected.toMap)
  }
}
