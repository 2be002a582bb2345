package repro.tune

import repro.util.DetRng

/** One tuning iteration: the threshold MLOS proposed and what it cost. */
final case class TuneResult(iteration: Int, threshold: Double,
                            durationSec: Double, bestSoFarSec: Double)

/** Deterministic stand-in for the FLAML/MLOS optimizer of §6.3: seeded
  * random search over the trigger-threshold space with best-so-far
  * tracking. Iteration 0 always evaluates the DEFAULT configuration
  * (threshold > 1 ⇒ auto-compaction never fires), matching Figure 9's
  * "default" marker; subsequent iterations propose thresholds from a
  * low-discrepancy-ish seeded stream.
  */
final class Tuner(seed: Long) {

  val disabledThreshold: Double = 1.01

  def optimize(workload: WorkloadModel, traitName: String,
               iterations: Int): Vector[TuneResult] = {
    require(iterations >= 1)
    val rng = new DetRng(DetRng.combine(seed, DetRng.hashString(workload.name),
      DetRng.hashString(traitName)))
    var best = Double.MaxValue
    (0 until iterations).toVector.map { i =>
      val threshold =
        if (i == 0) disabledThreshold
        else rng.nextDouble() // uniform over [0, 1)
      val d = workload.evaluate(traitName, threshold)
      best = math.min(best, d)
      TuneResult(i, threshold, d, best)
    }
  }
}
