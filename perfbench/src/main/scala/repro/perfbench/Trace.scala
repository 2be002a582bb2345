package repro.perfbench

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One timed interval at a layer boundary. Times are in the
  * `System.nanoTime` domain; `parent` is 0 for a root span.
  */
final case class Span(id: Long, parent: Long, name: String, layer: String, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Spans kept in memory and written out when the run ends.
  *
  * A span opened on a thread becomes that thread's current span, so nested
  * calls link to it. When a SparkContext is given, the span id is also set
  * as the thread's Spark job group: Spark copies local properties into
  * threads the caller starts (and into the scheduler's pool threads), so
  * every job can be attributed to the span that launched it.
  *
  * A disabled tracer runs the body and records nothing.
  */
final class Tracer(val enabled: Boolean, sc: Option[SparkContext]) {
  private val ids = new AtomicLong(0)
  private val done = new ConcurrentLinkedQueue[Span]()
  private val current = new ThreadLocal[java.lang.Long] { override def initialValue(): java.lang.Long = 0L }
  val jobs: Option[JobListener] = if (enabled) sc.map { c =>
    val l = new JobListener; c.addSparkListener(l); l
  } else None

  def currentSpan: Long = current.get

  def span[T](name: String, layer: String, parent: Long = -1L)(f: => T): T = {
    if (!enabled) return f
    val id = ids.incrementAndGet()
    val prev = current.get.longValue
    val p = if (parent >= 0) parent else prev
    current.set(id)
    sc.foreach(_.setJobGroup(Tracer.group(id), name, interruptOnCancel = false))
    val t0 = System.nanoTime()
    try f
    finally {
      done.add(Span(id, p, name, layer, t0, System.nanoTime()))
      current.set(prev)
      sc.foreach(c => if (prev == 0L) c.clearJobGroup() else c.setJobGroup(Tracer.group(prev), "", interruptOnCancel = false))
    }
  }

  /** Write every span as one JSON line: times in ms from the first span. */
  def dump(path: java.nio.file.Path): Unit = {
    val all = spans
    val t0 = if (all.isEmpty) 0L else all.map(_.startNs).min
    val lines = all.sortBy(_.startNs).map { s =>
      f"""{"id": ${s.id}, "parent": ${s.parent}, "name": ${Jsn.str(s.name)}, "layer": ${Jsn.str(s.layer)}, """ +
        f""""start_ms": ${(s.startNs - t0) / 1e6}%.3f, "ms": ${s.ms}%.3f}"""
    }
    Fs.write(path, lines.mkString("", "\n", "\n"))
  }

  /** Record an interval measured elsewhere (e.g. a fleet day). */
  def record(name: String, layer: String, parent: Long, startNs: Long, endNs: Long): Unit =
    if (enabled) done.add(Span(ids.incrementAndGet(), parent, name, layer, startNs, endNs))

  /** Every span, with Spark jobs attached as children of the span that
    * launched them; a job's layer is `spark.<group>` after that span.
    */
  def spans: Vector[Span] = {
    val own = done.asScala.toVector
    val layerOf = own.map(s => s.id -> s.layer).toMap
    own ++ jobs.fold(Vector.empty[Span])(_.all.filter(j => j.span != 0L && j.endMs >= 0).map { j =>
      Span(ids.incrementAndGet(), j.span, s"job ${j.id}: ${j.callSite}",
        "spark." + Tracer.groupOf(layerOf.getOrElse(j.span, "")), j.startNs, j.endNs)
    })
  }
}

object Tracer {
  private val Prefix = "perfbench-span-"
  def group(id: Long): String = Prefix + id
  def spanOf(group: String): Long =
    if (group != null && group.startsWith(Prefix)) group.drop(Prefix.length).toLong else 0L

  /** The Spark job group a span layer feeds. */
  def groupOf(layer: String): String = layer match {
    case "setup"     => "setup"
    case "lst.read"  => "read"
    case "lst.write" => "write"
    case "core.act"  => "act"
    case _           => "other"
  }
  val Groups: Vector[String] = Vector("setup", "read", "write", "act")
}

/** Spark job and task counters, attributed to the span whose job group
  * launched each job.
  */
final class JobListener extends SparkListener {
  final class Job(val id: Int, val span: Long, val desc: String, val callSite: String, val startMs: Long) {
    @volatile var endMs: Long = -1L
    val tasks = new AtomicLong()
    val runMs = new AtomicLong()
    val cpuNs = new AtomicLong()
    val shuffleBytes = new AtomicLong()
    def listing: Boolean = desc.startsWith("Listing leaf files")
    def startNs: Long = startMs * 1000000L + nanoOffset
    def endNs: Long = endMs * 1000000L + nanoOffset
    def ms: Double = (endMs - startMs).toDouble
  }
  private val jobMap = new ConcurrentHashMap[Int, Job]()
  private val stageToJob = new ConcurrentHashMap[Int, Job]()
  private val sentinels = new ConcurrentHashMap[String, CountDownLatch]()
  // job event times are wall-clock ms; spans use nanoTime
  private val nanoOffset = System.nanoTime() - System.currentTimeMillis() * 1000000L

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val props = Option(e.properties)
    val group = props.map(_.getProperty("spark.jobGroup.id")).orNull
    val desc = props.flatMap(p => Option(p.getProperty("spark.job.description"))).getOrElse("")
    val site = e.stageInfos.sortBy(_.stageId).lastOption.map(_.name).getOrElse("")
    val j = new Job(e.jobId, Tracer.spanOf(group), desc, site, e.time)
    jobMap.put(e.jobId, j)
    e.stageIds.foreach(s => stageToJob.put(s, j))
    if (group != null && sentinels.containsKey(group)) j.endMs = -2L
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val j = jobMap.get(e.jobId)
    if (j != null) {
      if (j.endMs == -2L) {
        jobMap.remove(e.jobId)
        sentinels.asScala.foreach { case (_, l) => l.countDown() }
      } else j.endMs = e.time
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val j = stageToJob.get(e.stageId)
    if (j != null && e.taskMetrics != null) {
      val m = e.taskMetrics
      j.tasks.incrementAndGet()
      j.runMs.addAndGet(m.executorRunTime)
      j.cpuNs.addAndGet(m.executorCpuTime)
      j.shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }

  /** Wait until every event posted so far has reached this listener: run a
    * marker job and wait for its end event (listener events are delivered
    * in order).
    */
  def drain(sc: SparkContext): Unit = {
    val g = "perfbench-drain-" + System.nanoTime()
    val latch = new CountDownLatch(1)
    sentinels.put(g, latch)
    sc.setJobGroup(g, "drain", interruptOnCancel = false)
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    latch.await(60, TimeUnit.SECONDS)
    sentinels.remove(g)
  }

  def all: Vector[Job] = jobMap.values.asScala.toVector.sortBy(_.id)

}

/** The blocking path through a span set. */
object SpanMath {

  final class Tree(spans: Vector[Span]) {
    val children: Map[Long, Vector[Span]] = spans.groupBy(_.parent)
    def kids(s: Span): Vector[Span] = children.getOrElse(s.id, Vector.empty)

    /** Blocking-path time by layer under `root`: walking back from the
      * end, time is charged to the child that finished last (recursively),
      * and to the span itself where no child was running. Charges sum to
      * the root's duration.
      */
    def blockingByLayer(root: Span): Map[String, Long] = {
      val acc = mutable.Map.empty[String, Long].withDefaultValue(0L)
      def walk(s: Span, lo: Long, hi: Long): Unit = {
        val ks = kids(s).filter(k => k.startNs < hi && k.endNs > lo)
        var t = hi
        var going = true
        while (going) {
          val live = ks.filter(_.startNs < t)
          if (live.isEmpty) { acc(s.layer) += t - lo; going = false }
          else {
            val k = live.maxBy(k => math.min(k.endNs, t))
            val e = math.min(k.endNs, t)
            val b = math.max(k.startNs, lo)
            acc(s.layer) += t - e
            walk(k, b, e)
            t = b
            if (t <= lo) going = false
          }
        }
      }
      walk(root, root.startNs, root.endNs)
      acc.toMap
    }
  }
}
