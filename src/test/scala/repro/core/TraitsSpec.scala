package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

import repro.lst.{DataFile, TableRef}

class TraitsSpec extends AnyFunSuite {

  private val cfg = CompactionConfig(targetFileSizeBytes = 1000L,
    executorMemoryGb = 8.0, rewriteBytesPerHour = 1e6)

  private def cand(sizes: Seq[Long], part: Option[String] = None): Candidate = {
    val files = sizes.zipWithIndex.map { case (s, i) =>
      DataFile(s"/f$i", part, s, 10L, 1L)
    }.toVector
    Candidate(TableRef("d", "t"), None, files)
  }

  private def checkProp(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), p)
    assert(res.passed, res.status.toString)
  }

  test("CandidateStats.of computes counts/bytes against target") {
    val s = Traits.observe(cand(Seq(100, 500, 1000, 2000)).files.map(_.sizeBytes), 1000L)
    assert(s.fileCount == 4)
    assert(s.smallFileCount == 2)
    assert(s.totalBytes == 3600L)
    assert(s.smallBytes == 600L)
  }

  test("CandidateStats.of on empty candidate") {
    val s = Traits.observe(cand(Seq.empty).files.map(_.sizeBytes), 1000L)
    assert(s == CandidateStats(0, 0, 0L, 0L, 0.0))
  }

  test("FileCountReduction equals paper's ΔF (count of files under target)") {
    val s = Traits.observe(cand(Seq(10, 999, 1000, 5000)).files.map(_.sizeBytes), 1000L)
    assert(Traits.FileCountReduction.compute(s, cfg) == 2.0)
  }

  test("AdjustedFileCountReduction subtracts files still produced") {
    // 4 small files of 600 B → 2400 B → ceil(2.4) = 3 outputs → adj = 1
    val s = Traits.observe(cand(Seq.fill(4)(600L)).files.map(_.sizeBytes), 1000L)
    assert(Traits.AdjustedFileCountReduction.compute(s, cfg) == 1.0)
  }

  test("AdjustedFileCountReduction never negative") {
    val s = Traits.observe(cand(Seq(999L)).files.map(_.sizeBytes), 1000L) // 1 small file → 1 output
    assert(Traits.AdjustedFileCountReduction.compute(s, cfg) == 0.0)
  }

  test("entropy zero when all files meet target") {
    assert(Traits.entropyOf(Seq(1000L, 4000L), 1000L) == 0.0)
  }

  test("entropy zero for empty candidate") {
    assert(Traits.entropyOf(Seq.empty, 1000L) == 0.0)
  }

  test("entropy increases as files shrink") {
    val e1 = Traits.entropyOf(Seq(900L, 900L), 1000L)
    val e2 = Traits.entropyOf(Seq(100L, 100L), 1000L)
    assert(e2 > e1 && e1 > 0.0)
  }

  test("entropy bounded in [0,1]") {
    checkProp(Prop.forAll(Gen.nonEmptyListOf(Gen.choose(0L, 5000L))) { sizes =>
      val e = Traits.entropyOf(sizes, 1000L)
      e >= 0.0 && e <= 1.0
    })
  }

  test("entropy exact value") {
    // one file at half target among two files: ((1-0.5)^2)/2 = 0.125
    assert(math.abs(Traits.entropyOf(Seq(500L, 1000L), 1000L) - 0.125) < 1e-12)
  }

  test("compute cost follows GBHr formula over small bytes") {
    val s = Traits.observe(cand(Seq(100L, 900L, 5000L)).files.map(_.sizeBytes), 1000L)
    // smallBytes = 1000; 8 GB × 1000/1e6 h = 0.008
    assert(math.abs(Traits.ComputeCostGbHr.compute(s, cfg) - 0.008) < 1e-12)
  }

  test("compute cost scales linearly with executor memory") {
    val s = Traits.observe(cand(Seq(500L)).files.map(_.sizeBytes), 1000L)
    val c1 = Traits.ComputeCostGbHr.compute(s, cfg)
    val c2 = Traits.ComputeCostGbHr.compute(s, cfg.copy(executorMemoryGb = 16.0))
    assert(math.abs(c2 - 2 * c1) < 1e-12)
  }

  test("observeAndOrient injects entropy and computes all traits") {
    val (stats, traits) = Traits.observeAndOrient(cand(Seq(100L, 2000L)), cfg)
    assert(Traits.all.forall(t => traits.contains(t.name)))
    assert(traits("fileCountReduction") == 1.0)
    assert(traits("fileEntropy") > 0.0)
  }

  test("trait cost/benefit direction flags") {
    assert(!Traits.FileCountReduction.isCost)
    assert(!Traits.FileEntropy.isCost)
    assert(Traits.ComputeCostGbHr.isCost)
  }

  test("CompactionConfig validation") {
    intercept[IllegalArgumentException](CompactionConfig(0L))
    intercept[IllegalArgumentException](CompactionConfig(10L, executorMemoryGb = 0))
    intercept[IllegalArgumentException](CompactionConfig(10L, rewriteBytesPerHour = 0))
  }
}
