package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import javax.management.NotificationEmitter
import javax.management.openmbean.CompositeData
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo

/** Command-line arguments of one benchmark run. */
final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, work: Path)

object Args {
  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt,
      need("trace") == "1", Paths.get(need("work")).toAbsolutePath)
  }
}

/** A named value with its unit. */
final case class Metric(name: String, value: Double, unit: String)

/** Everything one run reports: correctness checks, the end-to-end metrics
  * of the result line (untraced runs), end-to-end metrics only one
  * workload has, the per-layer metrics (traced runs), and notes and raw
  * samples that explain them.
  */
final class Report(val args: Args) {
  val checks = mutable.ArrayBuffer[(String, Boolean, String)]()
  val endToEnd = mutable.LinkedHashMap[String, Metric]()
  /** End-to-end metrics outside the result line, with a detail such as
    * the percentile and sample count of a tail.
    */
  val extras = mutable.LinkedHashMap[String, (Metric, String)]()
  val perLayer = mutable.LinkedHashMap[String, Metric]()
  val notes = mutable.LinkedHashMap[String, String]()
  /** Raw timings behind the percentiles, in the order they were taken. */
  val samples = mutable.LinkedHashMap[String, Seq[Double]]()
  var attempted = 0L
  var failed = 0L

  def check(name: String, ok: Boolean, detail: => String = ""): Unit = {
    val d = if (ok) "" else detail
    checks += ((name, ok, d))
    Log.info(s"check ${if (ok) "ok  " else "FAIL"} $name${if (d.isEmpty) "" else s": $d"}")
  }
  def e2e(name: String, value: Double, unit: String): Unit = endToEnd(name) = Metric(name, value, unit)
  def extra(name: String, value: Double, unit: String, detail: String = ""): Unit =
    extras(name) = (Metric(name, value, unit), detail)
  def layer(name: String, value: Double, unit: String): Unit = perLayer(name) = Metric(name, value, unit)
  def note(k: String, v: Any): Unit = notes(k) = v.toString
  def correct: Boolean = checks.forall(_._2)

  /** The result-line metrics, which every workload reports. `opMs` are the
    * latencies of the workload's client op, named `op` in the record.
    */
  def resultMetrics(setupMs: Seq[Double], runMs: Double, op: String, opMs: Seq[Double], tickMs: Seq[Double],
                    filesEnd: Double, heapMb: Double): Unit = {
    val (tail, pct, n) = Stats.tail(opMs)
    e2e("setup_s", Stats.median(setupMs) / 1000, "s")
    e2e("run_s", runMs / 1000, "s")
    e2e("op_p50_ms", Stats.median(opMs), "ms")
    e2e("op_tail_ms", tail, "ms")
    e2e("tick_p50_s", Stats.median(tickMs) / 1000, "s")
    e2e("files_end", filesEnd, "count")
    e2e("heap_peak_mb", heapMb, "MB")
    note("op", op)
    note("op_tail", f"p$pct%.1f of $n")
    samples("setup_ms") = setupMs
    samples("tick_ms") = tickMs
  }

  /** Median and tail of `xs` as extra metrics `<name>_p50_ms` and
    * `<name>_tail_ms`, keeping the samples for the record.
    */
  def latency(name: String, xs: Seq[Double]): Unit = {
    samples(s"${name}_ms") = xs
    extra(s"${name}_p50_ms", Stats.median(xs), "ms", s"${xs.size} samples")
    val (v, pct, n) = Stats.tail(xs)
    extra(s"${name}_tail_ms", v, "ms", f"p$pct%.1f of $n")
  }

  /** The final stdout line: the record the benchmark contract defines. */
  def resultLine: String = {
    val ms = if (args.trace) perLayer else endToEnd
    val body = ms.values.map(m => s"${Jsn.str(m.name)}: {\"value\": ${Jsn.num(m.value)}, \"unit\": ${Jsn.str(m.unit)}}")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${body.mkString(", ")}}}"""
  }

  /** The full record written next to the span dump. */
  def recordJson: String = {
    def metrics(m: Iterable[Metric]) = m.map(x =>
      s"${Jsn.str(x.name)}: {\"value\": ${Jsn.num(x.value)}, \"unit\": ${Jsn.str(x.unit)}}").mkString("{", ", ", "}")
    val cs = checks.map { case (n, ok, d) => s"{\"name\": ${Jsn.str(n)}, \"ok\": $ok, \"detail\": ${Jsn.str(d)}}" }
    val ns = notes.map { case (k, v) => s"${Jsn.str(k)}: ${Jsn.str(v)}" } ++
      samples.map { case (k, xs) => s"${Jsn.str(k)}: ${xs.map(x => f"$x%.3f").mkString("[", ", ", "]")}" }
    s"""{"workload": ${Jsn.str(args.workload)}, "seed": ${args.seed}, "seconds": ${args.seconds}, """ +
      s""""trace": ${args.trace}, "correct": $correct, "attempted": $attempted, "failed": $failed, """ +
      s""""machine": ${Jsn.str(Machine.describe)}, "checks": ${cs.mkString("[", ", ", "]")}, """ +
      s""""end_to_end": ${metrics(endToEnd.values)}, "end_to_end_extra": ${metrics(extras.values.map(_._1))}, """ +
      s""""per_layer": ${metrics(perLayer.values)}, """ +
      s""""notes": ${ns.mkString("{", ", ", "}")}}"""
  }
}

/** Minimal JSON text helpers for the records this package writes. */
object Jsn {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString
}

object Log {
  private val t0 = System.nanoTime()
  /** Progress lines go to stdout, ahead of the final result line, stamped
    * with seconds since the JVM started the benchmark.
    */
  def info(s: String): Unit = {
    println(f"[perfbench ${(System.nanoTime() - t0) / 1e9}%6.1fs] $s")
    System.out.flush()
  }
}

object Machine {
  def describe: String = {
    val os = ManagementFactory.getOperatingSystemMXBean
    val mem = os match {
      case m: com.sun.management.OperatingSystemMXBean => m.getTotalMemorySize >> 20
      case _ => -1L
    }
    s"cpus=${Runtime.getRuntime.availableProcessors} memMb=$mem jvm=${System.getProperty("java.version")} " +
      s"maxHeapMb=${Runtime.getRuntime.maxMemory >> 20}"
  }
}

/** Order statistics as the benchmark reports them. */
object Stats {
  /** Samples beyond a tail value: the tail is the highest percentile with at
    * least this many samples above it.
    */
  val TailBeyond = 10

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** (value, percentile, sample count): the (TailBeyond+1)-th largest sample
    * and the percentile it sits at. Requires more than TailBeyond samples.
    */
  def tail(xs: Seq[Double]): (Double, Double, Int) = {
    val n = xs.size
    require(n > TailBeyond, s"tail needs more than $TailBeyond samples, got $n")
    val s = xs.sorted
    val i = n - 1 - TailBeyond
    (s(i), 100.0 * (i + 1) / n, n)
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}

/** Wall clock helpers. */
object Clock {
  def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6
  def timed[T](f: => T): (T, Double) = { val t0 = System.nanoTime(); val r = f; (r, ms(t0)) }
}

/** How the workloads warm up and how a traced run pairs its passes. */
object Passes {
  /** Run warm-up passes until a pass's time (as `pass` reports it) falls by
    * less than 10% from the one before, at most `maxPasses`; the record
    * notes how many ran.
    */
  def warmUp(r: Report, maxPasses: Int)(pass: Int => Double): Unit = {
    var n = 0
    var prev = Double.MaxValue
    var trending = true
    while (trending && n < maxPasses) {
      n += 1
      val ms = pass(n)
      trending = ms < 0.9 * prev
      prev = ms
    }
    r.note("warmup_passes", n)
  }

  /** Run the traced and the untraced version of step `i`, the traced one
    * first on even steps, so neither side profits from running later in
    * the JVM. Returns (traced, untraced).
    */
  def alternate[A](i: Int)(traced: => A, untraced: => A): (A, A) =
    if (i % 2 == 0) { val t = traced; (t, untraced) } else { val u = untraced; (traced, u) }
}

/** JVM counters: GC time and count, and the peak heap still in use after a
  * collection (the live set), taken from GC notifications.
  */
final class JvmMeter {
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector
  @volatile private var peakAfterGc = 0L
  @volatile private var armed = false
  private val listener: javax.management.NotificationListener = (n, _) => {
    if (armed && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      val used = info.getGcInfo.getMemoryUsageAfterGc.asScala.valuesIterator.map(_.getUsed).sum
      if (used > peakAfterGc) peakAfterGc = used
    }
  }
  gcBeans.foreach { case e: NotificationEmitter => e.addNotificationListener(listener, null, null); case _ => }

  private var gc0 = (0L, 0L)
  private def gcNow: (Long, Long) =
    (gcBeans.map(_.getCollectionTime).sum, gcBeans.map(_.getCollectionCount).sum)

  /** Start measuring: counters from here on. */
  def start(): Unit = {
    System.gc()
    gc0 = gcNow
    peakAfterGc = currentUsed
    armed = true
  }
  private def currentUsed: Long = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed

  /** Stop measuring: (gc ms, gc count, peak live heap MB). The closing full
    * collection counts the live set at the end too.
    */
  def stop(): (Double, Double, Double) = {
    val (t, c) = gcNow
    System.gc()
    armed = false
    val peak = math.max(peakAfterGc, currentUsed)
    ((t - gc0._1).toDouble, (c - gc0._2).toDouble, peak / (1024.0 * 1024.0))
  }
}

object Fs {
  def deleteTree(p: Path): Unit =
    if (Files.exists(p))
      Files.walk(p).iterator.asScala.toVector.reverse.foreach(Files.deleteIfExists(_))

  def write(p: Path, s: String): Unit = {
    Files.createDirectories(p.getParent)
    Files.writeString(p, s)
  }
}
