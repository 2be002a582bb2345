package repro.perfbench

import org.apache.spark.sql.SparkSession

import repro.core.Traits

/** Per-layer metrics of a traced run. Every metric is reported on every
  * workload; a layer the workload does not exercise reads 0.
  */
object Layers {
  val Groups: Vector[String] = Tracer.Groups
  /** Layers the blocking path is broken down by. */
  val PathLayers: Vector[String] = Vector("workload", "lst.read", "lst.write", "core", "core.plan",
    "core.act", "fleet", "spark.read", "spark.write", "spark.act", "spark.other")

  /** Every per-layer metric with its unit, in report order. */
  val All: Vector[(String, String)] =
    Vector("spark.listing_jobs" -> "count") ++
      Groups.flatMap(g => Vector(s"spark.jobs.$g" -> "count", s"spark.job_ms.$g" -> "ms", s"spark.tasks.$g" -> "count",
        s"spark.task_run_ms.$g" -> "ms", s"spark.task_cpu_ms.$g" -> "ms", s"spark.shuffle_bytes.$g" -> "bytes")) ++
      Vector("lst.read.plan_ms" -> "ms", "lst.read.exec_ms" -> "ms", "lst.read.files_per_read" -> "count",
        "lst.write.append_ms" -> "ms", "lst.write.delete_ms" -> "ms",
        "lst.commits.append" -> "count", "lst.commits.overwrite" -> "count", "lst.commits.rewrite" -> "count",
        "lst.meta_bytes" -> "bytes", "lst.meta_bytes_per_commit" -> "bytes",
        "lst.data_files_on_disk" -> "count", "lst.data_files_live" -> "count", "lst.tmp_files_left" -> "count",
        "lst.space_amp" -> "ratio",
        "core.plan.candidates" -> "count", "core.plan.kept" -> "count", "core.plan.selected" -> "count") ++
      Tick.Phases.map(p => s"core.plan.${p}_ms" -> "ms") ++
      Vector("core.act.units" -> "count", "core.act.units_skipped" -> "count", "core.act.units_failed" -> "count",
        "core.act.attempts" -> "count", "core.act.conflicts" -> "count", "core.act.useful_ratio" -> "ratio",
        "core.act.wall_ms" -> "ms", "core.act.unit_ms_sum" -> "ms", "core.act.unit_ms_p50" -> "ms",
        "core.act.parallel_eff" -> "ratio", "core.act.bytes_rewritten" -> "bytes",
        "core.act.files_removed" -> "count", "core.act.files_added" -> "count",
        "core.act.df_predicted_over_actual" -> "ratio",
        "workload.ops_attempted" -> "count", "workload.ops_failed" -> "count", "workload.hour_ms_p50" -> "ms",
        "workload.stream_busy_ms" -> "ms", "workload.barrier_wait_ms" -> "ms", "workload.client_conflicts" -> "count",
        "fleet.day_ms.nocomp" -> "ms", "fleet.day_ms.manual" -> "ms", "fleet.day_ms.auto_topk" -> "ms",
        "fleet.day_ms.auto_budget" -> "ms", "fleet.tables_picked" -> "count", "fleet.files_reduced" -> "count",
        "jvm.gc_ms" -> "ms", "jvm.gc_count" -> "count", "jvm.heap_peak_mb" -> "MB",
        "trace.overhead_frac" -> "ratio", "trace.path_ms" -> "ms", "trace.path_cover" -> "ratio") ++
      PathLayers.map(l => s"path.$l.ms" -> "ms")

  private val units: Map[String, String] = All.toMap

  /** Start a traced run's metrics at 0, so layers a workload does not
    * exercise still appear.
    */
  def zero(r: Report): Unit = All.foreach { case (n, u) => r.layer(n, 0.0, u) }

  def set(r: Report, name: String, v: Double): Unit = {
    require(units.contains(name), s"unknown per-layer metric $name")
    r.layer(name, v, units(name))
  }

  /** Tracing overhead, the JVM counters, and the blocking path of the traced
    * passes: walking back from the end of each root `run` span, time is
    * charged to the layer whose span (or Spark job) finished last, so the
    * charges add up to the traced wall time exactly where spans cover it.
    */
  def common(r: Report, tr: Tracer, tracedRunMs: Double, untracedRunMs: Double,
             gc: (Double, Double, Double)): Unit = {
    set(r, "trace.overhead_frac", tracedRunMs / untracedRunMs - 1)
    set(r, "jvm.gc_ms", gc._1)
    set(r, "jvm.gc_count", gc._2)
    set(r, "jvm.heap_peak_mb", gc._3)
    val spans = tr.spans
    val tree = new SpanMath.Tree(spans)
    val by = spans.filter(s => s.parent == 0L && s.name == "run").map(tree.blockingByLayer)
      .flatten.groupMapReduce(_._1)(_._2)(_ + _)
    by.foreach { case (l, ns) => if (units.contains(s"path.$l.ms")) set(r, s"path.$l.ms", ns / 1e6) }
    val pathMs = by.values.sum / 1e6
    set(r, "trace.path_ms", pathMs)
    set(r, "trace.path_cover", pathMs / tracedRunMs)
  }

  /** Spark, LST, control-plane, act and workload layers of a traced CAB
    * pass, plus the storage counters of its catalog.
    */
  def spark(r: Report, p: PassData, s: Storage, tr: Tracer, spark: SparkSession): Unit = {
    tr.jobs.foreach(_.drain(spark.sparkContext))
    val spans = tr.spans
    val layerOf = spans.map(x => x.id -> x.layer).toMap
    val jobs = tr.jobs.map(_.all).getOrElse(Vector.empty).filter(j => j.span != 0L && j.endMs >= 0)
    set(r, "spark.listing_jobs", jobs.count(_.listing))
    Groups.foreach { g =>
      val js = jobs.filter(j => Tracer.groupOf(layerOf.getOrElse(j.span, "")) == g)
      set(r, s"spark.jobs.$g", js.size)
      set(r, s"spark.job_ms.$g", js.map(_.ms).sum)
      set(r, s"spark.tasks.$g", js.map(_.tasks.get).sum.toDouble)
      set(r, s"spark.task_run_ms.$g", js.map(_.runMs.get).sum.toDouble)
      set(r, s"spark.task_cpu_ms.$g", js.map(_.cpuNs.get).sum / 1e6)
      set(r, s"spark.shuffle_bytes.$g", js.map(_.shuffleBytes.get).sum.toDouble)
    }

    // read path: planning runs until the read's first job that does not come
    // from LstReader (listing and schema jobs do); execution is the rest
    val jobsBySpan = jobs.groupBy(_.span)
    val splits = spans.filter(_.layer == "lst.read").map { sp =>
      val exec = jobsBySpan.getOrElse(sp.id, Vector.empty).filterNot(_.callSite.contains("LstReader"))
        .map(_.startNs).minOption.getOrElse(sp.endNs)
      val cut = math.min(math.max(exec, sp.startNs), sp.endNs)
      ((cut - sp.startNs) / 1e6, (sp.endNs - cut) / 1e6)
    }
    set(r, "lst.read.plan_ms", Stats.mean(splits.map(_._1)))
    set(r, "lst.read.exec_ms", Stats.mean(splits.map(_._2)))
    set(r, "lst.read.files_per_read", Stats.mean(p.reads.map(_.filesScanned.toDouble)))
    set(r, "lst.write.append_ms", Stats.mean(p.ops.filter(_.kind == "append").map(_.ms)))
    set(r, "lst.write.delete_ms", Stats.mean(p.ops.filter(_.kind == "delete").map(_.ms)))

    Vector("append", "overwrite", "rewrite").foreach(op => set(r, s"lst.commits.$op", s.commits.getOrElse(op, 0).toDouble))
    set(r, "lst.meta_bytes", s.metaBytes.toDouble)
    set(r, "lst.meta_bytes_per_commit", s.metaBytes.toDouble / math.max(1, s.commitCount))
    set(r, "lst.data_files_on_disk", s.dataFilesOnDisk)
    set(r, "lst.data_files_live", s.dataFilesLive)
    set(r, "lst.tmp_files_left", s.tmpFilesLeft)
    set(r, "lst.space_amp", s.spaceAmp)

    val ticks = p.ticks
    set(r, "core.plan.candidates", ticks.map(_.candidates).sum)
    set(r, "core.plan.kept", ticks.map(_.kept).sum)
    set(r, "core.plan.selected", ticks.map(_.selected.size).sum)
    Tick.Phases.foreach(ph => set(r, s"core.plan.${ph}_ms", ticks.map(_.phaseMs.getOrElse(ph, 0.0)).sum))

    val res = p.results
    val done = res.filter(x => x.succeeded && !x.skipped)
    val attempts = res.map(_.attempts).sum
    val actMs = ticks.map(_.phaseMs.getOrElse("act", 0.0)).sum
    val unitMs = res.map(_.wallMs.toDouble)
    set(r, "core.act.units", res.size)
    set(r, "core.act.units_skipped", res.count(_.skipped))
    set(r, "core.act.units_failed", res.count(!_.succeeded))
    set(r, "core.act.attempts", attempts)
    set(r, "core.act.conflicts", res.map(_.conflicts).sum)
    set(r, "core.act.useful_ratio", done.size.toDouble / math.max(1, attempts))
    set(r, "core.act.wall_ms", actMs)
    set(r, "core.act.unit_ms_sum", unitMs.sum)
    set(r, "core.act.unit_ms_p50", if (done.isEmpty) 0.0 else Stats.median(done.map(_.wallMs.toDouble)))
    set(r, "core.act.parallel_eff",
      if (actMs == 0) 0.0 else unitMs.sum / (actMs * Plan.acfg.scheduler.tableParallelism))
    set(r, "core.act.bytes_rewritten", res.map(_.bytesRewritten).sum.toDouble)
    set(r, "core.act.files_removed", res.map(_.removedFiles).sum)
    set(r, "core.act.files_added", res.map(_.addedFiles).sum)
    val predicted = ticks.flatMap(_.selected).map(_.traits.getOrElse(Traits.FileCountReduction.name, 0.0)).sum
    val actual = res.map(_.netFileReduction).sum
    set(r, "core.act.df_predicted_over_actual", if (actual == 0) 0.0 else predicted / actual)

    set(r, "workload.ops_attempted", p.ops.size)
    set(r, "workload.ops_failed", p.ops.count(!_.ok))
    set(r, "workload.hour_ms_p50", Stats.median(p.hourMs))
    set(r, "workload.stream_busy_ms", p.streamBusyMs)
    set(r, "workload.barrier_wait_ms", p.barrierWaitMs)
    set(r, "workload.client_conflicts", p.ops.map(_.conflicts).sum)
  }
}
