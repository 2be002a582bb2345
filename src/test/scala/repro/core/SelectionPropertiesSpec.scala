package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

import repro.lst.{DataFile, TableRef}

/** Property-based invariants of the decide phase: hold for ANY candidate
  * pool, not just the hand-picked cases in RankerSpec.
  */
class SelectionPropertiesSpec extends AnyFunSuite {

  private val cfg = CompactionConfig(targetFileSizeBytes = 1000L,
    executorMemoryGb = 8.0, rewriteBytesPerHour = 1e6)

  private def checkProp(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), p)
    assert(res.passed, res.status.toString)
  }

  private val genCandidate: Gen[(Candidate, CandidateStats)] = for {
    name <- Gen.identifier.map(_.take(8))
    sizes <- Gen.listOfN(8, Gen.choose(1L, 3000L))
  } yield {
    val files = sizes.zipWithIndex.map { case (s, i) =>
      DataFile(s"/$name/$i", None, s, 1L, 1L)
    }.toVector
    val c = Candidate(TableRef("d", name), None, files)
    (c, Traits.observe(c.files.map(_.sizeBytes), cfg.targetFileSizeBytes))
  }

  private val genPool: Gen[Vector[(Candidate, CandidateStats)]] =
    Gen.listOf(genCandidate).map(_.toVector.zipWithIndex.map { case ((c, s), i) =>
      // a "-index" suffix keeps table names, and so candidate ids, distinct
      (c.copy(table = c.table.copy(name = s"${c.table.name}-$i")), s)
    })

  test("property: MOOP scores bounded by total weight (normalized traits in [0,1])") {
    checkProp(Prop.forAll(genPool) { pool =>
      Ranker.defaultMoop.rank(pool, cfg).forall(sc => sc.score >= -1.0 && sc.score <= 1.0)
    })
  }

  test("property: ranking preserves the pool (no candidates invented or lost)") {
    checkProp(Prop.forAll(genPool) { pool =>
      val ranked = Ranker.defaultMoop.rank(pool, cfg)
      ranked.map(_.candidate).toSet == pool.map(_._1).toSet
    })
  }

  test("property: ranking is order-invariant in the input pool") {
    checkProp(Prop.forAll(genPool, Gen.long) { (pool, seed) =>
      val shuffled = new scala.util.Random(seed).shuffle(pool)
      Ranker.defaultMoop.rank(pool, cfg).map(_.candidate.id) ==
        Ranker.defaultMoop.rank(shuffled, cfg).map(_.candidate.id)
    })
  }

  test("property: scores are non-increasing down the ranking") {
    checkProp(Prop.forAll(genPool) { pool =>
      val s = Ranker.defaultMoop.rank(pool, cfg).map(_.score)
      s.zip(s.drop(1)).forall { case (a, b) => a >= b }
    })
  }

  test("property: TopK never selects more than k, in ranked order") {
    checkProp(Prop.forAll(genPool, Gen.choose(0, 20)) { (pool, k) =>
      val ranked = Ranker.defaultMoop.rank(pool, cfg)
      val sel = Selector.TopK(k).select(ranked, cfg)
      sel.size <= k && sel == ranked.take(sel.size)
    })
  }

  test("property: BudgetGreedy stays within budget") {
    checkProp(Prop.forAll(genPool, Gen.choose(0.0, 1.0)) { (pool, budget) =>
      val ranked = Ranker.defaultMoop.rank(pool, cfg)
      val sel = Selector.BudgetGreedy(budget).select(ranked, cfg)
      sel.map(_.traits(Traits.ComputeCostGbHr.name)).sum <= budget + 1e-9
    })
  }

  test("property: BudgetGreedy selection is a subsequence of the ranking") {
    checkProp(Prop.forAll(genPool, Gen.choose(0.0, 0.5)) { (pool, budget) =>
      val ranked = Ranker.defaultMoop.rank(pool, cfg).map(_.candidate.id)
      val sel = Selector.BudgetGreedy(budget).select(
        Ranker.defaultMoop.rank(pool, cfg), cfg).map(_.candidate.id)
      sel == ranked.filter(sel.toSet)
    })
  }

  test("property: threshold ranker output respects the threshold") {
    checkProp(Prop.forAll(genPool, Gen.choose(0.0, 8.0)) { (pool, thr) =>
      val r = Ranker.ThresholdRanker(TriggerRule(Traits.FileCountReduction, thr))
      r.rank(pool, cfg).forall(_.traits(Traits.FileCountReduction.name) >= thr)
    })
  }

  test("property: entropy of any size distribution stays in [0,1]") {
    checkProp(Prop.forAll(Gen.listOf(Gen.choose(0L, 100000L))) { sizes =>
      val e = Traits.entropyOf(sizes, cfg.targetFileSizeBytes)
      e >= 0.0 && e <= 1.0
    })
  }

  test("property: stats are internally consistent") {
    checkProp(Prop.forAll(genCandidate) { case (_, s) =>
      s.smallFileCount <= s.fileCount &&
        s.smallBytes <= s.totalBytes
    })
  }
}
