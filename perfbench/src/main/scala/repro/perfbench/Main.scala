package repro.perfbench

import scala.util.control.NonFatal

/** Entry point: `--workload cab|fleet --seed N --seconds S --trace 0|1
  * --work DIR`. Progress goes to stdout as `[perfbench]` lines; the last
  * line is the result record. Exits 1 if any correctness check fails, 2 if
  * the run cannot complete.
  */
object Main {
  /** The end-to-end metrics the benchmark defines, in print order. Those
    * not on the result line exist on one workload only.
    */
  val EndToEndMetrics: Vector[String] = Vector("setup_s", "run_s", "op_p50_ms", "op_tail_ms", "read_p50_ms",
    "read_tail_ms", "write_p50_ms", "write_tail_ms", "tick_p50_s", "rewrite_mb_per_s", "files_end", "space_amp",
    "day_p50_ms", "day_tail_ms", "heap_peak_mb", "ops_failed_frac")

  def main(argv: Array[String]): Unit = {
    val code = try {
      val a = Args.parse(argv)
      val r = new Report(a)
      Log.info(s"workload=${a.workload} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}")
      a.workload match {
        case "cab" =>
          val spark = Session.start(a.work)
          try CabBench.run(a, spark, r) finally spark.stop()
        case "fleet" => FleetBench.run(a, r)
        case w => throw new IllegalArgumentException(s"unknown workload '$w' (cab, fleet)")
      }
      r.extra("ops_failed_frac", r.failed.toDouble / r.attempted, "ratio", s"${r.failed} of ${r.attempted}")
      if (a.trace) r.perLayer.values.foreach(m => Log.info(f"metric ${m.name} = ${m.value}%.4f ${m.unit}"))
      else EndToEndMetrics.foreach { n =>
        r.endToEnd.get(n).map(m => f"${m.value}%.4f ${m.unit}")
          .orElse(r.extras.get(n).map { case (m, d) => f"${m.value}%.4f ${m.unit}${if (d.isEmpty) "" else s" ($d)"}" })
          .foreach(v => Log.info(s"metric $n = $v"))
      }
      Fs.write(a.work.resolve("record.json"), r.recordJson)
      println(r.resultLine)
      if (r.correct) 0 else 1
    } catch {
      case NonFatal(e) =>
        System.err.println(s"[perfbench] run failed: $e")
        e.printStackTrace(System.err)
        2
    }
    System.out.flush()
    sys.exit(code)
  }
}
