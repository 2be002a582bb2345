package repro.core

/** Orient-phase trait calculators (§4.2): decision helpers computed from
  * observe-phase statistics. Benefit traits score higher when compaction
  * helps more; cost traits score higher when compaction is more expensive
  * (`isCost` tells the ranker which direction to optimize).
  */
trait TraitCalc {
  def name: String
  def isCost: Boolean
  def compute(stats: CandidateStats, cfg: CompactionConfig): Double
}

object Traits {

  /** Estimated file count reduction (paper §4.2):
    * ΔF_c = Σ_i 1(FileSize_i < TargetFileSize) — the number of files below
    * target. The paper notes (§7) this overestimates when small files span
    * partition boundaries; [[AdjustedFileCountReduction]] models the
    * refinement.
    */
  case object FileCountReduction extends TraitCalc {
    val name = "fileCountReduction"
    val isCost = false
    def compute(stats: CandidateStats, cfg: CompactionConfig): Double =
      stats.smallFileCount.toDouble
  }

  /** ΔF minus the files compaction must still produce:
    * ΔF_adj = smallFiles − [[packedOutputs]](smallFiles, smallBytes), or 0
    * when packing cannot shrink them. A closer estimate of the net reduction
    * for single-partition candidates.
    */
  case object AdjustedFileCountReduction extends TraitCalc {
    val name = "adjustedFileCountReduction"
    val isCost = false
    def compute(stats: CandidateStats, cfg: CompactionConfig): Double =
      packedOutputs(stats.smallFileCount, stats.smallBytes, cfg.targetFileSizeBytes)
        .fold(0.0)(out => (stats.smallFileCount - out).toDouble)
  }

  /** File entropy (Netflix auto-optimize [65]): mean squared relative
    * deviation from the target size over files below target,
    * E = (1/N) Σ_{size_i < T} ((T − size_i)/T)², in [0, 1]. Zero when every
    * file meets the target; → 1 as files shrink toward zero bytes.
    */
  case object FileEntropy extends TraitCalc {
    val name = "fileEntropy"
    val isCost = false
    def compute(stats: CandidateStats, cfg: CompactionConfig): Double =
      stats.entropy
  }

  /** Entropy needs per-file sizes, so [[observe]] computes it into
    * `CandidateStats.entropy`.
    */
  def entropyOf(fileSizes: Seq[Long], targetBytes: Long): Double = {
    if (fileSizes.isEmpty) 0.0
    else {
      val t = targetBytes.toDouble
      val devs = fileSizes.collect { case s if s < targetBytes =>
        val d = (t - s) / t; d * d
      }
      if (devs.isEmpty) 0.0 else devs.sum / fileSizes.size
    }
  }

  /** Compute cost in GB·hours (paper §4.2):
    * GBHr_c = ExecutorMemoryGB × DataSize_c / RewriteBytesPerHour, where
    * DataSize_c is the bytes compaction actually rewrites — the candidate's
    * below-target files (files already at target are left in place by the
    * bin-packing executor).
    */
  case object ComputeCostGbHr extends TraitCalc {
    val name = "computeCostGbHr"
    val isCost = true
    def compute(stats: CandidateStats, cfg: CompactionConfig): Double =
      gbHr(stats.smallBytes, cfg)
  }

  /** GBHr_c = ExecutorMemoryGB × DataSize_c / RewriteBytesPerHour for
    * rewriting `bytes` (§4.2).
    */
  def gbHr(bytes: Long, cfg: CompactionConfig): Double =
    cfg.executorMemoryGb * (bytes.toDouble / cfg.rewriteBytesPerHour)

  /** The shrink rule of every act phase: the files a bin-pack rewrite of
    * `count` files holding `bytes` produces, as Iceberg's rewrite-data-files
    * sizes its output — max(1, ceil(bytes / target)) — or None when that is
    * not fewer than `count`, so the rewrite cannot shrink the group.
    */
  def packedOutputs(count: Long, bytes: Long, targetBytes: Long): Option[Long] =
    Some(math.max(1L, math.ceil(bytes.toDouble / targetBytes).toLong)).filter(_ < count)

  val all: Vector[TraitCalc] =
    Vector(FileCountReduction, AdjustedFileCountReduction, FileEntropy, ComputeCostGbHr)

  /** Observe phase: the statistics of a candidate's `fileSizes` against
    * the target — the one builder of [[CandidateStats]] from file sizes.
    */
  def observe(fileSizes: Seq[Long], targetBytes: Long): CandidateStats = {
    val small = fileSizes.filter(_ < targetBytes)
    CandidateStats(fileSizes.size, small.size, fileSizes.sum, small.sum, entropyOf(fileSizes, targetBytes))
  }

  /** Orient phase: every trait value of observed statistics. */
  def orient(stats: CandidateStats, cfg: CompactionConfig): Map[String, Double] =
    all.map(t => t.name -> t.compute(stats, cfg)).toMap

  /** Observe+orient in one step: stats plus all trait values for a
    * candidate.
    */
  def observeAndOrient(c: Candidate, cfg: CompactionConfig): (CandidateStats, Map[String, Double]) = {
    val stats = observe(c.files.map(_.sizeBytes), cfg.targetFileSizeBytes)
    (stats, orient(stats, cfg))
  }
}
