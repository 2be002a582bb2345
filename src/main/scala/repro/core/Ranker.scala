package repro.core

/** Decide-phase ranking (§4.3): order candidates by a decision function.
  * Implementations must be deterministic in their inputs (NFR2); ties are
  * broken by candidate id so identical pools always rank identically.
  */
trait Ranker {
  def rank(pool: Vector[(Candidate, CandidateStats)], cfg: CompactionConfig): Vector[ScoredCandidate]

  protected def orientAll(pool: Vector[(Candidate, CandidateStats)], cfg: CompactionConfig)
      : Vector[(Candidate, CandidateStats, Map[String, Double])] =
    pool.map { case (c, s) => (c, s, Traits.orient(s, cfg)) }

  protected def sorted(xs: Vector[ScoredCandidate]): Vector[ScoredCandidate] =
    xs.sorted(Ordering.by((sc: ScoredCandidate) => -sc.score).orElseBy(_.candidate.id))
}

object Ranker {

  /** Min-max normalization over the candidate pool (§4.3):
    * T' = (T − min) / (max − min), mapping trait values to [0, 1]. A
    * constant trait normalizes to 0 (no discriminating power, no division
    * by zero).
    */
  def minMaxNormalize(values: Vector[Double]): Vector[Double] = {
    if (values.isEmpty) values
    else {
      val mn = values.min; val mx = values.max
      if (mx == mn) values.map(_ => 0.0)
      else values.map(v => (v - mn) / (mx - mn))
    }
  }

  /** The production deployment's quota-scaled benefit weight (§7):
    * w1 = 0.5·(1 + Used/Total), with Used/Total clamped to 1.
    */
  def quotaWeight(used: Long, quota: Long): Double =
    0.5 * (1.0 + math.min(1.0, used.toDouble / quota))

  /** Unconstrained-resource decision function (§4.3): score = the rule's
    * decision value; candidates for which the [[TriggerRule]] fires qualify,
    * the rest are dropped.
    */
  final case class ThresholdRanker(rule: TriggerRule) extends Ranker {
    def rank(pool: Vector[(Candidate, CandidateStats)], cfg: CompactionConfig): Vector[ScoredCandidate] = {
      val scored = orientAll(pool, cfg).collect { case (c, s, traits) if rule.fires(s, cfg) =>
        ScoredCandidate(c, s, traits, rule.value(s, cfg))
      }
      sorted(scored)
    }
  }

  /** Resource-constrained MOOP ranking (§4.3): scalarize benefit and cost
    * traits into S_c = Σ_benefit w_i·T'_i − Σ_cost w_j·T'_j after min-max
    * normalizing each trait over the pool. Weights must sum to 1.
    *
    * `weightOverride` supports the production deployment's per-candidate
    * benefit weight w1 ([[quotaWeight]], §7); when present
    * it replaces the static weight of the FIRST (benefit) trait, and the
    * remaining weight (1 − w1) is distributed over the other traits
    * proportionally to their static weights.
    */
  final case class MoopRanker(weights: Vector[(TraitCalc, Double)],
                              weightOverride: Option[Candidate => Double] = None) extends Ranker {
    require(weights.nonEmpty, "MOOP needs at least one trait")
    require(math.abs(weights.map(_._2).sum - 1.0) < 1e-9, s"weights must sum to 1: $weights")

    def rank(pool: Vector[(Candidate, CandidateStats)], cfg: CompactionConfig): Vector[ScoredCandidate] = {
      if (pool.isEmpty) return Vector.empty
      val oriented = orientAll(pool, cfg)
      // Normalize each weighted trait across the pool.
      val normalized: Map[String, Vector[Double]] = weights.map { case (t, _) =>
        t.name -> minMaxNormalize(oriented.map(_._3(t.name)))
      }.toMap
      val scored = oriented.zipWithIndex.map { case ((c, s, traits), i) =>
        val ws: Vector[(TraitCalc, Double)] = weightOverride match {
          case None => weights
          case Some(f) =>
            val w1 = f(c)
            val restStatic = weights.tail.map(_._2).sum
            val scale = if (restStatic == 0) 0.0 else (1.0 - w1) / restStatic
            (weights.head._1, w1) +: weights.tail.map { case (t, w) => (t, w * scale) }
        }
        val score = ws.map { case (t, w) =>
          val tNorm = normalized(t.name)(i)
          if (t.isCost) -w * tNorm else w * tNorm
        }.sum
        ScoredCandidate(c, s, traits, score)
      }
      sorted(scored)
    }
  }

  /** The paper's default production configuration (§6.1): MOOP over file
    * count reduction (w=0.7) and compute cost (w=0.3).
    */
  def defaultMoop: MoopRanker =
    MoopRanker(Vector(Traits.FileCountReduction -> 0.7, Traits.ComputeCostGbHr -> 0.3))
}

/** The threshold decision function (§4.3): fire when `trait_` meets
  * `threshold`, or, with `asRatioOfFiles`, when the trait divided by the
  * candidate's file count does — e.g. trigger when estimated file count
  * reduction ≥ 10% of the candidate's files. Used by [[Ranker.ThresholdRanker]],
  * [[OptimizeAfterWriteHook]] and the Fig 9 workload model.
  */
final case class TriggerRule(trait_ : TraitCalc, threshold: Double, asRatioOfFiles: Boolean = false) {
  def value(stats: CandidateStats, cfg: CompactionConfig): Double = {
    val raw = trait_.compute(stats, cfg)
    if (asRatioOfFiles && stats.fileCount > 0) raw / stats.fileCount else raw
  }

  def fires(stats: CandidateStats, cfg: CompactionConfig): Boolean = value(stats, cfg) >= threshold
}

object TriggerRule {

  /** The two Fig 9 (§6.3) trigger traits by name: "smallFileCount" is the
    * share of files below target (ΔF as a ratio of files), "fileEntropy" is
    * file entropy. Any other name is rejected.
    */
  def named(traitName: String, threshold: Double): TriggerRule = traitName match {
    case "smallFileCount" => TriggerRule(Traits.FileCountReduction, threshold, asRatioOfFiles = true)
    case "fileEntropy"    => TriggerRule(Traits.FileEntropy, threshold)
    case other            => throw new IllegalArgumentException(s"unknown trigger trait: $other")
  }
}

/** Decide-phase selection: pick the work units that go to the act phase. */
trait Selector {
  def select(ranked: Vector[ScoredCandidate], cfg: CompactionConfig): Vector[ScoredCandidate]
}

object Selector {

  /** Fixed top-k selection (§7 initial rollout: k ≈ 10). */
  final case class TopK(k: Int) extends Selector {
    def select(ranked: Vector[ScoredCandidate], cfg: CompactionConfig): Vector[ScoredCandidate] =
      ranked.take(k)
  }

  /** Greedy budget packing (§4.3): walk the ranking and admit candidates
    * while their cumulative estimated GBHr stays within `budgetGbHr` —
    * "fit as many high-priority compaction tasks as possible within the
    * budget". Candidates that individually exceed the remaining budget are
    * skipped, not blockers.
    */
  final case class BudgetGreedy(budgetGbHr: Double) extends Selector {
    def select(ranked: Vector[ScoredCandidate], cfg: CompactionConfig): Vector[ScoredCandidate] = {
      var spent = 0.0
      val picked = Vector.newBuilder[ScoredCandidate]
      ranked.foreach { sc =>
        val cost = sc.traits(Traits.ComputeCostGbHr.name)
        if (spent + cost <= budgetGbHr) { spent += cost; picked += sc }
      }
      picked.result()
    }
  }
}
