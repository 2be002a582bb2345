package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.lst.{DataFile, TableRef}

class RankerSpec extends AnyFunSuite {

  private val cfg = CompactionConfig(targetFileSizeBytes = 1000L,
    executorMemoryGb = 8.0, rewriteBytesPerHour = 1e6)

  /** Candidate with `nSmall` files of `smallSize` plus one big file. */
  private def cand(name: String, nSmall: Int, smallSize: Long = 100L): (Candidate, CandidateStats) = {
    val files = (0 until nSmall).map(i =>
      DataFile(s"/$name/s$i", None, smallSize, 1L, 1L)).toVector :+
      DataFile(s"/$name/big", None, 5000L, 1L, 1L)
    val c = Candidate(TableRef("d", name), None, files)
    (c, Traits.observe(c.files.map(_.sizeBytes), cfg.targetFileSizeBytes))
  }

  test("minMaxNormalize maps to [0,1] with min→0 and max→1") {
    val n = Ranker.minMaxNormalize(Vector(2.0, 4.0, 6.0))
    assert(n == Vector(0.0, 0.5, 1.0))
  }

  test("minMaxNormalize constant vector → all zeros") {
    assert(Ranker.minMaxNormalize(Vector(3.0, 3.0)) == Vector(0.0, 0.0))
  }

  test("minMaxNormalize empty is empty") {
    assert(Ranker.minMaxNormalize(Vector.empty).isEmpty)
  }

  test("ThresholdRanker keeps only candidates at/above threshold") {
    val pool = Vector(cand("a", 20), cand("b", 5), cand("c", 10))
    val r = Ranker.ThresholdRanker(TriggerRule(Traits.FileCountReduction, threshold = 10.0))
    val ranked = r.rank(pool, cfg)
    assert(ranked.map(_.candidate.table.name) == Vector("a", "c"))
  }

  test("ThresholdRanker ratio mode: ΔF ≥ 10% of files (paper §4.3 example)") {
    val pool = Vector(cand("a", 1), cand("b", 9))
    // a: 1 small / 2 files = 0.5 ; b: 9/10 = 0.9 — both above 0.1
    val r = Ranker.ThresholdRanker(TriggerRule(Traits.FileCountReduction, 0.1, asRatioOfFiles = true))
    assert(r.rank(pool, cfg).size == 2)
    val strict = Ranker.ThresholdRanker(TriggerRule(Traits.FileCountReduction, 0.8, asRatioOfFiles = true))
    assert(strict.rank(pool, cfg).map(_.candidate.table.name) == Vector("b"))
  }

  test("MoopRanker rejects weights not summing to 1") {
    intercept[IllegalArgumentException] {
      Ranker.MoopRanker(Vector(Traits.FileCountReduction -> 0.5, Traits.ComputeCostGbHr -> 0.3))
    }
  }

  test("MoopRanker orders by benefit when costs equal") {
    val pool = Vector(cand("low", 5), cand("high", 50), cand("mid", 20))
    val ranked = Ranker.defaultMoop.rank(pool, cfg)
    assert(ranked.map(_.candidate.table.name) == Vector("high", "mid", "low"))
  }

  test("MoopRanker penalizes cost: same ΔF, pricier candidate ranks lower (paper §4.2 example)") {
    // identical small-file counts but b's small files are 10× larger
    val pool = Vector(cand("a", 10, smallSize = 50L), cand("b", 10, smallSize = 500L))
    val ranked = Ranker.defaultMoop.rank(pool, cfg)
    assert(ranked.map(_.candidate.table.name) == Vector("a", "b"))
    assert(ranked.head.score > ranked(1).score)
  }

  test("MoopRanker cost/benefit crossover: big reduction at huge cost can lose") {
    // a: 200-file reduction but 10000× cost; b: 100 files cheap
    val pool = Vector(cand("a", 200, smallSize = 999L), cand("b", 100, smallSize = 1L))
    val heavyCost = Ranker.MoopRanker(Vector(
      Traits.FileCountReduction -> 0.3, Traits.ComputeCostGbHr -> 0.7))
    assert(heavyCost.rank(pool, cfg).head.candidate.table.name == "b")
    // with benefit-dominated weights, a wins
    val heavyBenefit = Ranker.MoopRanker(Vector(
      Traits.FileCountReduction -> 0.9, Traits.ComputeCostGbHr -> 0.1))
    assert(heavyBenefit.rank(pool, cfg).head.candidate.table.name == "a")
  }

  test("MoopRanker deterministic tie-break by candidate id") {
    val pool = Vector(cand("b", 10), cand("a", 10))
    val ranked = Ranker.defaultMoop.rank(pool, cfg)
    assert(ranked.map(_.candidate.table.name) == Vector("a", "b"))
  }

  test("MoopRanker identical runs produce identical output (NFR2)") {
    val pool = Vector(cand("a", 3), cand("b", 17), cand("c", 9))
    val r1 = Ranker.defaultMoop.rank(pool, cfg)
    val r2 = Ranker.defaultMoop.rank(pool, cfg)
    assert(r1 == r2)
  }

  test("MoopRanker on empty pool") {
    assert(Ranker.defaultMoop.rank(Vector.empty, cfg).isEmpty)
  }

  test("weightOverride implements quota-scaled w1 (§7)") {
    val pool = Vector(cand("a", 10), cand("b", 10, smallSize = 500L))
    // db at 100% quota → w1 = 1.0 → cost ignored → tie broken by id; at 0%
    // quota w1=0.5, w2=0.5 → cost matters → a (cheap) wins strictly.
    val full = Ranker.MoopRanker(
      Vector(Traits.FileCountReduction -> 0.7, Traits.ComputeCostGbHr -> 0.3),
      weightOverride = Some(_ => 1.0))
    val rankedFull = full.rank(pool, cfg)
    assert(rankedFull.head.score == rankedFull(1).score) // cost weight zeroed
    val empty = Ranker.MoopRanker(
      Vector(Traits.FileCountReduction -> 0.7, Traits.ComputeCostGbHr -> 0.3),
      weightOverride = Some(_ => 0.5))
    val rankedEmpty = empty.rank(pool, cfg)
    assert(rankedEmpty.head.candidate.table.name == "a")
    assert(rankedEmpty.head.score > rankedEmpty(1).score)
  }

  test("TopK selector truncates ranking") {
    val pool = Vector(cand("a", 30), cand("b", 20), cand("c", 10))
    val ranked = Ranker.defaultMoop.rank(pool, cfg)
    val sel = Selector.TopK(2).select(ranked, cfg)
    assert(sel.map(_.candidate.table.name) == Vector("a", "b"))
  }

  test("BudgetGreedy admits while cumulative GBHr fits") {
    val pool = Vector(cand("a", 100, 900L), cand("b", 50, 900L), cand("c", 10, 900L))
    val ranked = Ranker.defaultMoop.rank(pool, cfg)
    val costs = ranked.map(_.traits(Traits.ComputeCostGbHr.name))
    // budget for exactly the first two
    val budget = costs(0) + costs(1) + 1e-9
    val sel = Selector.BudgetGreedy(budget).select(ranked, cfg)
    assert(sel.map(_.candidate.table.name) == Vector("a", "b"))
  }

  test("BudgetGreedy skips an oversized candidate but admits later cheap ones") {
    val pool = Vector(cand("big", 100, 999L), cand("small", 5, 10L))
    val ranked = Ranker.defaultMoop.rank(pool, cfg)
    assert(ranked.head.candidate.table.name == "big")
    val smallCost = ranked(1).traits(Traits.ComputeCostGbHr.name)
    val sel = Selector.BudgetGreedy(smallCost + 1e-9).select(ranked, cfg)
    assert(sel.map(_.candidate.table.name) == Vector("small"))
  }

  test("BudgetGreedy with zero budget selects nothing") {
    val ranked = Ranker.defaultMoop.rank(Vector(cand("a", 5)), cfg)
    assert(Selector.BudgetGreedy(0.0).select(ranked, cfg).isEmpty)
  }
}
