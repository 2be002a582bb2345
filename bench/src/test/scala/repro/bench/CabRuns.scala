package repro.bench

import repro.SparkSpec
import repro.exp.CabExperiment

/** The §6 CAB sweep at bench scale, computed ONCE per bench-JVM and shared
  * by the Table 1 / Fig 6 / Fig 7 / Fig 8 suites (they are views over the
  * same experiment, exactly as in the paper).
  *
  * Scale: 10 databases × (LINEITEM partitioned into 8 ship months + ORDERS),
  * 5 simulated hours, target file size 512 KB (paper: 512 MB at 500 GB) —
  * 20 tables / 90 hybrid work units, so TABLE-10 and HYBRID-50 are both
  * genuinely partial selections like the paper's k values.
  */
object CabRuns {
  val params: CabExperiment.Params = CabExperiment.Params(
    nDbs = 10,
    hours = 5,
    seed = 42L,
    months = 8,
    appendSf = 0.002,
    appendFiles = 6,
    initialSf = 0.004,
    initialLineitemFiles = 6,
    initialOrdersFiles = 12)

  /** Paper k values scaled by fleet-size ratio (see paperStrategies doc):
    * table-10 → k=2 over 20 tables, hybrid-50 → k=10 and hybrid-500 →
    * k=100 over 90 work units.
    */
  val kDivisor = 5

  lazy val results: Vector[CabExperiment.StrategyResult] =
    CabExperiment.runAll(SparkSpec.shared, params,
      CabExperiment.paperStrategies(kDivisor))

  def byName(name: String): CabExperiment.StrategyResult =
    results.find(_.strategy == name).get
}
