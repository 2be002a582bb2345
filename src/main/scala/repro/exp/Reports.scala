package repro.exp

import repro.fleet.DayMetrics
import repro.tune.TuneResult

/** Plain-text table rendering + the row builders the bench suites
  * (`bench/`) print. Every evaluation artifact of the paper has one
  * builder here.
  */
object Reports {

  /** Render an aligned ASCII table. */
  def render(title: String, headers: Vector[String], rows: Vector[Vector[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Vector[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("+-", "-+-", "-+")
    (Vector(s"== $title ==", sep, line(headers), sep) ++ rows.map(line) :+ sep).mkString("\n")
  }

  def f1(d: Double): String = f"$d%.1f"
  def f2(d: Double): String = f"$d%.2f"
  def f3(d: Double): String = f"$d%.3f"

  // -------------------------------------------------------------------
  // Table 1 — client & cluster-side conflicts per execution hour
  // -------------------------------------------------------------------

  /** Paper's Table 1 (hours 2-5): (#writeQueries, client NoComp, client
    * Table-10, client Hybrid-500, cluster Table-10, cluster Hybrid-500).
    */
  val paperTable1: Map[Int, (Int, Int, Int, Int, Int, Int)] = Map(
    2 -> (12, 1, 11, 4, 23, 0),
    3 -> (5, 0, 2, 0, 17, 0),
    4 -> (15, 1, 5, 6, 4, 0),
    5 -> (8, 4, 0, 2, 0, 0))

  def table1(results: Vector[CabExperiment.StrategyResult]): String = {
    val byName = results.map(r => r.strategy -> r).toMap
    def hr(name: String, h: Int): CabExperiment.HourRecord =
      byName(name).hours.find(_.hour == h).get
    val hours = byName("nocomp").hours.map(_.hour).filter(_ >= 2)
    val rows = hours.map { h =>
      val p = paperTable1.get(h)
      Vector(
        h.toString,
        hr("nocomp", h).writeQueries.toString,
        hr("nocomp", h).clientConflicts.toString,
        hr("table-10", h).clientConflicts.toString,
        hr("hybrid-500", h).clientConflicts.toString,
        hr("table-10", h).clusterConflicts.toString,
        hr("hybrid-500", h).clusterConflicts.toString,
        p.fold("-")(v => s"${v._1}/${v._2}/${v._3}/${v._4}/${v._5}/${v._6}"))
    }
    render("Table 1: write-write conflicts per execution hour (ours vs paper)",
      Vector("hour", "#writes", "cli:nocomp", "cli:table10", "cli:hyb500",
        "clu:table10", "clu:hyb500", "paper(w/cN/cT/cH/kT/kH)"),
      rows)
  }

  // -------------------------------------------------------------------
  // Figure 6 — file count over time per strategy
  // -------------------------------------------------------------------

  def fig6(results: Vector[CabExperiment.StrategyResult]): String = {
    val hours = results.head.hours.map(_.hour)
    val rows = Vector(
      Vector("initial") ++ results.map(_.initialFileCount.toString)
    ) ++ hours.map { h =>
      Vector(s"hour $h") ++ results.map(r =>
        r.hours.find(_.hour == h).get.fileCountEnd.toString)
    }
    render("Figure 6: live file count over time (paper: nocomp grows ~2640/h; " +
      "compaction drops sharply then flattens; hybrid declines more gradually)",
      Vector("t") ++ results.map(_.strategy), rows)
  }

  // -------------------------------------------------------------------
  // Figure 7 — mean GBHr per compaction application
  // -------------------------------------------------------------------

  def fig7(results: Vector[CabExperiment.StrategyResult]): String = {
    val rows = results.filter(_.strategy != "nocomp").map { r =>
      Vector(r.strategy, r.hours.flatMap(_.compactionUnitGbHrs).size.toString,
        f3(r.meanGbHrPerUnit), f3(r.gbHrStdDev))
    }
    render("Figure 7: GBHr per compaction application (paper: table scope " +
      "higher & spikier; hybrid/partition scope lower & more stable)",
      Vector("strategy", "apps", "mean GBHr", "stddev"), rows)
  }

  // -------------------------------------------------------------------
  // Figure 8 — query latency per hour (read-only & read-write)
  // -------------------------------------------------------------------

  def fig8(results: Vector[CabExperiment.StrategyResult]): String = {
    val rows = results.flatMap { r =>
      r.hours.map { h =>
        Vector(r.strategy, h.hour.toString,
          h.readLatency.min.toString, h.readLatency.p25.toString,
          h.readLatency.p50.toString, h.readLatency.p75.toString,
          h.readLatency.max.toString,
          h.readWriteLatency.p50.toString,
          f1(h.meanFilesScannedPerRead))
      }
    }
    render("Figure 8: query latency candlesticks per hour, ms (paper: from hour 2 " +
      "compaction consistently improves latency & variability; table-10 fastest)",
      Vector("strategy", "hour", "ro:min", "ro:p25", "ro:p50", "ro:p75", "ro:max",
        "rw:p50", "files/read"), rows)
  }

  // -------------------------------------------------------------------
  // Figure 9 — auto-tuning iterations
  // -------------------------------------------------------------------

  def fig9(name: String, paperNote: String, results: Vector[TuneResult]): String = {
    val rows = results.map { t =>
      val thr = if (t.threshold > 1.0) "off(default)" else f3(t.threshold)
      Vector(t.iteration.toString, thr, f1(t.durationSec), f1(t.bestSoFarSec))
    }
    render(s"Figure 9 [$name]: tuning iterations ($paperNote)",
      Vector("iter", "threshold", "duration s", "best-so-far s"), rows)
  }

  // -------------------------------------------------------------------
  // Figure 10 — fleet: manual→auto transition, dynamic k, total files
  // -------------------------------------------------------------------

  def fig10a(days: Vector[DayMetrics]): String = {
    val weeks = days.grouped(7).zipWithIndex.toVector
    val rows = weeks.map { case (ds, i) =>
      Vector(s"week ${i + 1}", ds.head.policy,
        f2(ds.map(_.filesReduced).sum / 1e6),
        f1(ds.map(_.tbHrSpent).sum),
        (ds.map(_.kCompacted).sum / ds.size).toString)
    }
    render("Figure 10a: weekly file reduction & compaction cost across the " +
      "manual(k=100) → auto(k=10) transition (paper: avg 6.59M files/manual vs " +
      "7.44M/auto, +12%, at higher cost)",
      Vector("week", "policy", "files reduced (M)", "TBHr", "mean k/day"), rows)
  }

  def fig10b(days: Vector[DayMetrics]): String = {
    val rows = days.map { d =>
      Vector(d.day.toString, d.policy, d.kCompacted.toString,
        f1(d.tbHrSpent), f2(d.filesReduced / 1e6))
    }
    render("Figure 10b: fixed k=10 → dynamic k under a 226 TBHr budget " +
      "(paper: k jumps to ≈2500 tables/iteration)",
      Vector("day", "policy", "k", "TBHr", "files reduced (M)"), rows)
  }

  def fig10c(days: Vector[DayMetrics]): String = {
    val weeks = days.grouped(7).zipWithIndex.toVector
    val rows = weeks.map { case (ds, i) =>
      Vector(s"week ${i + 1}", ds.last.policy,
        f2(ds.last.totalFiles / 1e6), f2(ds.last.totalSmallFiles / 1e6))
    }
    render("Figure 10c: total fleet file count over time (paper: sustained " +
      "decrease despite deployment growth)",
      Vector("week", "policy", "total files (M)", "small files (M)"), rows)
  }

  // -------------------------------------------------------------------
  // Figure 11 — workload impact & HDFS open() calls
  // -------------------------------------------------------------------

  /** Per-day cohort view for the sawtooth: mean files a scan-heavy query
    * touches on the tracked tables, with model query time/cost (qt = a +
    * b·files, cost ∝ files).
    */
  def fig11a(cohort: Vector[(Int, Double, Boolean)]): String = {
    val rows = cohort.map { case (day, files, compacted) =>
      val qtime = 30.0 + 0.002 * files
      val qcost = files * 1e-5
      Vector(day.toString, f1(files), f1(qtime), f3(qcost), if (compacted) "*" else "")
    }
    render("Figure 11a: files scanned / query time / query cost for AutoComp-" +
      "selected tables (paper: compaction runs cut files scanned, time & cost " +
      "together; unselected cycles re-accumulate → sawtooth; * = compacted)",
      Vector("day", "mean files scanned", "query time (model s)",
        "query cost (model TBHr)", "compacted"), rows)
  }

  def fig11b(days: Vector[DayMetrics], daysPerMonth: Int): String = {
    val rows = days.grouped(daysPerMonth).zipWithIndex.toVector.map { case (ds, i) =>
      Vector(s"month ${i + 1}", ds.last.policy,
        f2(ds.map(_.openCalls).sum / ds.size.toDouble / 1e6))
    }
    render("Figure 11b: mean daily filesystem open() calls per month (paper: " +
      "sharp decline when manual compaction lands in month 4, further drop " +
      "with auto-compaction from month 9)",
      Vector("month", "policy", "open() calls (M/day)"), rows)
  }

  // -------------------------------------------------------------------
  // Figures 2 & 3 — motivating scenario
  // -------------------------------------------------------------------

  def fig2(before: Vector[(String, Double)], after: Vector[(String, Double)],
           pctBefore: Double, pctAfter: Double): String = {
    val rows = before.zip(after).map { case ((b, pb), (_, pa)) =>
      Vector(b, f1(pb), f1(pa))
    } :+ Vector("% below target/4 (paper's <128MB line)", f1(pctBefore), f1(pctAfter))
    render("Figure 2: file size distribution before/after compaction (paper: " +
      "83% of files <128MB before, 62% after manual compaction, lower with AutoComp)",
      Vector("bucket", "before %", "after %"), rows)
  }

  def fig3(phases: Vector[MaintenanceExperiment.PhaseResult]): String = {
    val initial = phases.find(_.phase == "initial").get.seconds
    val rows = phases.map { p =>
      Vector(p.phase, f1(p.seconds), f2(p.seconds / initial), p.liveFiles.toString)
    }
    render("Figure 3: single-user phase runtime around a 3% data-maintenance " +
      "phase (paper: 1.53x degradation, restored by compaction)",
      Vector("phase", "seconds", "vs initial", "live files"), rows)
  }
}
