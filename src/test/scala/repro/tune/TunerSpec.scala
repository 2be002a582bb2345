package repro.tune

import org.scalatest.funsuite.AnyFunSuite

class TunerSpec extends AnyFunSuite {

  private val tuner = new Tuner(seed = 3)

  test("iteration 0 evaluates the disabled (default) configuration") {
    val r = tuner.optimize(WorkloadModel.wp1, "smallFileCount", 5)
    assert(r.head.threshold == tuner.disabledThreshold)
  }

  test("results are deterministic in seed (NFR2)") {
    val a = new Tuner(9).optimize(WorkloadModel.wp1, "smallFileCount", 10)
    val b = new Tuner(9).optimize(WorkloadModel.wp1, "smallFileCount", 10)
    assert(a == b)
  }

  test("different seeds propose different thresholds") {
    val a = new Tuner(1).optimize(WorkloadModel.wp1, "smallFileCount", 10)
    val b = new Tuner(2).optimize(WorkloadModel.wp1, "smallFileCount", 10)
    assert(a.map(_.threshold) != b.map(_.threshold))
  }

  test("bestSoFar is monotonically non-increasing") {
    val r = tuner.optimize(WorkloadModel.wp1, "smallFileCount", 20)
    r.zip(r.tail).foreach { case (x, y) => assert(y.bestSoFarSec <= x.bestSoFarSec) }
  }

  test("thresholds proposed in [0,1)") {
    val r = tuner.optimize(WorkloadModel.wp1, "smallFileCount", 20)
    r.tail.foreach(t => assert(t.threshold >= 0.0 && t.threshold < 1.0))
  }

  test("WP1 benefits substantially from tuned compaction (Fig 9a: up to 2×)") {
    val r = tuner.optimize(WorkloadModel.wp1, "smallFileCount", 20)
    val default = r.head.durationSec
    val best = r.map(_.durationSec).min
    assert(default / best > 1.4, s"expected >1.4× gain, got ${default / best}")
  }

  test("TPC-H: the default (no auto-compaction) is best (Fig 9b)") {
    val r = tuner.optimize(WorkloadModel.tpch, "smallFileCount", 20)
    assert(r.head.durationSec == r.map(_.durationSec).min,
      s"default=${r.head.durationSec} best=${r.map(_.durationSec).min}")
  }

  test("WP3 sees consistent benefits (Fig 9d): most iterations beat default") {
    val r = tuner.optimize(WorkloadModel.wp3, "smallFileCount", 20)
    val default = r.head.durationSec
    val better = r.tail.count(_.durationSec < default)
    assert(better > r.tail.size / 2, s"only $better/${r.tail.size} iterations improved")
  }

  test("entropy and small-file-count triggers reach comparable optima on WP1 (Fig 9a vs 9c)") {
    val rc = tuner.optimize(WorkloadModel.wp1, "smallFileCount", 25)
    val re = tuner.optimize(WorkloadModel.wp1, "fileEntropy", 25)
    val bc = rc.map(_.durationSec).min
    val be = re.map(_.durationSec).min
    assert(math.abs(bc - be) / math.max(bc, be) < 0.15,
      s"smallFileCount best=$bc entropy best=$be")
  }

  test("model durations are positive and finite") {
    Vector(WorkloadModel.wp1, WorkloadModel.wp3, WorkloadModel.tpch).foreach { w =>
      val d = w.evaluate("smallFileCount", 0.5)
      assert(d > 0 && java.lang.Double.isFinite(d))
    }
  }

  test("disabled threshold means no compaction cost difference from any trait") {
    val a = WorkloadModel.wp1.evaluate("smallFileCount", 1.01)
    val b = WorkloadModel.wp1.evaluate("fileEntropy", 1.01)
    assert(a == b) // same state machine, trigger never fires
  }
}
