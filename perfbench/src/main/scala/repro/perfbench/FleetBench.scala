package repro.perfbench

import scala.collection.mutable

import repro.exp.FleetExperiments
import repro.fleet._

/** `fleet`: `FleetSimulator` at 35K tables over the three Fig 10 schedules
  * of `FleetExperiments` (170 days covering no compaction, manual, top-k
  * and budget), on the fleet those figures use. It runs the real
  * `core.plan` ranking and selection on thousands of candidates a day, with
  * no Spark and no I/O: control-plane changes show here, data-plane changes
  * should not. The seed does not change the inputs: a fleet drawn from
  * another seed changes the candidate pool, and the day times with it, by
  * up to half.
  */
object FleetBench {
  /** Timed seconds per pass over the three schedules, used to size a run;
    * a pass takes 8 to 12 s on 4 busy cores.
    */
  val PassSeconds = 15.0
  /** Building a fleet takes milliseconds, so it is timed many times. */
  val Setups = 25
  val MaxWarmupPasses = 4

  /** A Fig 10 schedule: days, policy changes, and its fleet configuration. */
  final case class Schedule(name: String, days: Int, policies: Map[Int, Policy], cfg: FleetConfig)

  /** Fig 10a, 10b and 10c as `FleetExperiments` defines them. */
  val schedules: Vector[Schedule] = {
    val base = FleetExperiments.prodCfg()
    Vector(
      Schedule("10a", 42, Map(1 -> Policy.ManualFixed(100), 15 -> Policy.AutoTopK(10)), base),
      Schedule("10b", 44, Map(1 -> Policy.AutoBudget(226.0), 31 -> Policy.AutoTopK(10),
        38 -> Policy.AutoBudget(226.0)), base.copy(maxCandidateTbHr = 2.0)),
      Schedule("10c", 84, Map(1 -> Policy.NoComp, 15 -> Policy.ManualFixed(100),
        43 -> Policy.AutoBudget(600.0)), base.copy(maxCandidateTbHr = Double.MaxValue)))
  }

  /** Files reduced over all days and files at the end, per schedule, as
    * the program has always produced them.
    */
  val Expected: Map[String, (Long, Long)] = Map(
    "10a" -> (133625745L, 371534867L),
    "10b" -> (177358566L, 341537697L),
    "10c" -> (598726550L, 184231158L))

  final case class DayRec(schedule: String, day: Int, bucket: String, ms: Double, m: DayMetrics)

  def bucket(policy: String): String =
    if (policy == "nocomp") "nocomp"
    else if (policy.startsWith("manual")) "manual"
    else if (policy.startsWith("auto-budget")) "auto_budget"
    else "auto_topk"

  /** Run every schedule, timing each day from the simulator's `onDay`
    * callback (day 1 includes building the fleet).
    */
  def runAll(scheds: Vector[Schedule], tr: Tracer): (Vector[DayRec], Double) = {
    val out = mutable.ArrayBuffer[DayRec]()
    val t0 = System.nanoTime()
    tr.span("run", "workload") {
      val runSpan = tr.currentSpan
      scheds.foreach { s =>
        tr.span(s"fig ${s.name}", "fleet", runSpan) {
          val schedSpan = tr.currentSpan
          var last = System.nanoTime()
          val ends = mutable.ArrayBuffer[(Long, Long)]()
          val days = new FleetSimulator(s.cfg).run(s.days, s.policies, onDay = (_, _, _) => {
            val now = System.nanoTime()
            ends += ((last, now))
            last = now
          })
          days.zip(ends).foreach { case (m, (a, b)) =>
            tr.record(s"day ${m.day}", "fleet", schedSpan, a, b)
            out += DayRec(s.name, m.day, bucket(m.policy), (b - a) / 1e6, m)
          }
        }
      }
    }
    (out.toVector, Clock.ms(t0))
  }

  /** Budget days never spend more than their budget. */
  def budgetViolations(days: Vector[DayRec]): Vector[String] = days.collect {
    case d if d.bucket == "auto_budget" &&
      d.m.tbHrSpent > d.m.policy.stripPrefix("auto-budget-").toDouble + 1e-9 =>
      s"${d.schedule} day ${d.day}: ${d.m.tbHrSpent} TBHr over ${d.m.policy}"
  }

  /** Warm-up: the canonical Fig 10a run, repeated until its wall time stops
    * falling; its totals are checked every time.
    */
  private def warmUp(r: Report): Unit = Passes.warmUp(r, MaxWarmupPasses) { n =>
    val (canon, ms) = Clock.timed(FleetExperiments.runFig10a())
    Log.info(f"warm-up pass $n: canonical Fig 10a in $ms%.0f ms")
    checkTotals(r, s"warmup$n", "10a", canon)
    ms
  }

  private def checkTotals(r: Report, label: String, schedule: String, days: Seq[DayMetrics]): Unit = {
    val got = (days.map(_.filesReduced).sum, days.last.totalFiles)
    r.check(s"fleet.$label.fig$schedule.totals", got == Expected(schedule),
      s"files reduced, final files $got != ${Expected(schedule)}")
  }

  private def outcome(ds: Vector[DayRec]) =
    ds.map(d => (d.schedule, d.day, d.m.filesReduced, d.m.totalFiles, d.m.kCompacted, d.m.tbHrSpent))

  def run(a: Args, r: Report): Unit = {
    val passes = math.max(1, math.round(a.seconds / PassSeconds).toInt)
    val fleets = Vector.fill(passes)(schedules)
    val none = new Tracer(false, None)
    val jvm = new JvmMeter
    warmUp(r)

    if (!a.trace) {
      val setups = (1 to Setups).map(_ => Clock.timed(new FleetSimulator(schedules.head.cfg).initialFleet())._2)
      jvm.start()
      val runs = fleets.map(runAll(_, none))
      val gc = jvm.stop()
      val days = runs.flatMap(_._1).toVector
      val runMs = runs.map(_._2).sum
      Log.info(f"timed: ${days.size} days in $passes passes in $runMs%.0f ms")
      // a day under an AutoComp policy is both the client op and the tick;
      // days without one only grow the fleet, in a few milliseconds
      val autoMs = days.filter(_.bucket.startsWith("auto")).map(_.ms)
      r.resultMetrics(setups, runMs, "simulated day under an AutoComp policy", autoMs, autoMs,
        runs.map(x => finalFiles(x._1)).sum.toDouble, gc._3)
      r.latency("day", days.map(_.ms))
      r.note("files_reduced", days.map(_.m.filesReduced).sum)
      val bad = budgetViolations(days)
      r.check("fleet.budget_never_exceeded", bad.isEmpty, bad.take(3).mkString("; "))
      runs.zipWithIndex.foreach { case ((ds, _), i) =>
        ds.groupBy(_.schedule).foreach { case (s, x) => checkTotals(r, s"pass${i + 1}", s, x.map(_.m)) }
      }
      r.attempted = days.size
    } else {
      // Traced run: every schedule traced and untraced, alternating which
      // goes first.
      val tr = new Tracer(true, None)
      jvm.start()
      val pairs = fleets.flatten.zipWithIndex.map { case (s, i) =>
        Passes.alternate(i)(runAll(Vector(s), tr), runAll(Vector(s), none))
      }
      val gc = jvm.stop()
      val tdays = pairs.flatMap(_._1._1).toVector
      val udays = pairs.flatMap(_._2._1).toVector
      r.check("fleet.traced_outcome_equals_untraced", outcome(tdays) == outcome(udays), "day outcomes differ")
      val bad = budgetViolations(tdays)
      r.check("fleet.budget_never_exceeded", bad.isEmpty, bad.take(3).mkString("; "))
      Layers.zero(r)
      Vector("nocomp", "manual", "auto_topk", "auto_budget").foreach { b =>
        val xs = tdays.filter(_.bucket == b).map(_.ms)
        Layers.set(r, s"fleet.day_ms.$b", if (xs.isEmpty) 0.0 else Stats.median(xs))
      }
      Layers.set(r, "fleet.tables_picked", tdays.map(_.m.kCompacted).sum)
      Layers.set(r, "fleet.files_reduced", tdays.map(_.m.filesReduced).sum.toDouble)
      Layers.common(r, tr, pairs.map(_._1._2).sum, pairs.map(_._2._2).sum, gc)
      tr.dump(a.work.resolve("spans.jsonl"))
      r.attempted = tdays.size + udays.size
    }
  }

  private def finalFiles(days: Vector[DayRec]): Long =
    days.groupBy(_.schedule).values.map(_.maxBy(_.day).m.totalFiles).sum
}
