package repro.perfbench

import java.nio.file.{Files, Path}
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col

import repro.Oracle
import repro.core._
import repro.lst._
import repro.util.Json

/** The benchmark's Spark session: local, 4 cores, quiet, and writing only
  * under the run's work directory.
  */
object Session {
  def start(work: Path): SparkSession = {
    val s = SparkSession.builder()
      .master("local[4]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      // the same settings the test and bench suites run the experiments with
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

/** AutoComp configuration shared by the Spark workloads: the paper's hybrid
  * scope with MOOP ranking, selecting every work unit (like hybrid-500 of
  * the CAB sweep), 512 KB target files.
  */
object Plan {
  val cfg: CompactionConfig = CompactionConfig(512L << 10, 8.0, 256.0 * (1L << 20))
  val acfg: AutoCompConfig = AutoCompConfig(ScopeStrategy.Hybrid, cfg,
    Seq(Filters.MinSmallFiles(2)), Ranker.defaultMoop, Selector.TopK(100000), SchedulerConfig(4))
}

/** One AutoComp tick's outcome, whichever way it was run. */
final case class TickOut(
    wallMs: Double,
    candidates: Int,
    kept: Int,
    selected: Vector[ScoredCandidate],
    results: Vector[CompactionResult],
    phaseMs: Map[String, Double],
    threw: Boolean)

object Tick {
  val Phases: Vector[String] = Vector("generate", "observe", "filter", "rank", "select")

  /** Untraced: `AutoComp.runOnce`. Traced: the same phases called one by
    * one through their public functions, in `runOnce`'s order, each a span.
    */
  def run(spark: SparkSession, catalog: LstCatalog, acfg: AutoCompConfig, tr: Tracer, parent: Long = -1L): TickOut = {
    val t0 = System.nanoTime()
    try {
      if (!tr.enabled) {
        val r = new AutoComp(catalog).runOnce(spark, acfg)
        TickOut(Clock.ms(t0), r.generated, r.generated - r.filteredOut.values.sum, r.selected, r.results,
          Map.empty, threw = false)
      } else tr.span("tick", "core", parent) {
        def phase[T](name: String, layer: String)(f: => T): (T, Double) =
          tr.span(name, layer)(Clock.timed(f))
        val (cands, gMs) = phase("generate", "core.plan")(CandidateGenerator.generate(catalog, acfg.strategy))
        val (observed, oMs) = phase("observe", "core.plan")(
          cands.map(c => (c, Traits.observeAndOrient(c, acfg.cfg)._1)))
        val ((kept, _), fMs) = phase("filter", "core.plan")(Filters.apply(observed, acfg.filters))
        val (ranked, rMs) = phase("rank", "core.plan")(acfg.ranker.rank(kept, acfg.cfg))
        val (selected, sMs) = phase("select", "core.plan")(acfg.selector.select(ranked, acfg.cfg))
        val (results, aMs) = phase("act", "core.act")(
          new CompactionScheduler(acfg.scheduler).run(spark, catalog, selected, acfg.cfg))
        phase("feedback", "core.plan")(
          results.map(_.table).distinct.map(ref => catalog.table(ref).currentSnapshot.fileCount))
        TickOut(Clock.ms(t0), cands.size, kept.size, selected, results,
          Map("generate" -> gMs, "observe" -> oMs, "filter" -> fMs, "rank" -> rMs, "select" -> sMs, "act" -> aMs),
          threw = false)
      }
    } catch {
      case NonFatal(e) =>
        Log.info(s"tick failed: $e")
        TickOut(Clock.ms(t0), 0, 0, Vector.empty, Vector.empty, Map.empty, threw = true)
    }
  }
}

/** Storage state of a catalog, read from disk after a run. */
final case class Storage(
    commits: Map[String, Int],
    metaBytes: Long,
    dataFilesOnDisk: Int,
    dataFilesLive: Int,
    liveBytes: Long,
    diskBytes: Long,
    tmpFilesLeft: Int,
    missingFiles: Vector[String]) {
  def commitCount: Int = commits.values.sum
  def spaceAmp: Double = diskBytes.toDouble / math.max(1L, liveBytes)
}

object Storage {
  private def files(dir: Path): Vector[Path] =
    if (!Files.isDirectory(dir)) Vector.empty
    else Files.walk(dir).iterator.asScala.filter(Files.isRegularFile(_)).toVector

  /** Walk every table: commits by operation from `meta/v*.json`, metadata
    * bytes, data files on disk vs. live in the current snapshot, leftover
    * `tmp/` files, and every file any snapshot references that is missing.
    */
  def scan(catalog: LstCatalog): Storage = {
    var commits = Map.empty[String, Int].withDefaultValue(0)
    var metaBytes = 0L
    var onDisk = 0
    var live = 0
    var liveBytes = 0L
    var tmp = 0
    val missing = Vector.newBuilder[String]
    catalog.allTables.foreach { ref =>
      val t = catalog.table(ref)
      val metaDir = t.root.resolve("meta")
      files(metaDir).foreach { p =>
        metaBytes += Files.size(p)
        val n = p.getFileName.toString
        if (n.matches("v\\d+\\.json")) {
          val snap = Json.read[Snapshot](Files.readString(p))
          if (snap.operation != Snapshot.OpCreate) commits = commits.updated(snap.operation, commits(snap.operation) + 1)
          snap.files.foreach(f => if (!Files.exists(Path.of(f.path))) missing += s"$ref v${snap.version}: ${f.path}")
        }
      }
      onDisk += files(t.dataDir).count(_.getFileName.toString.endsWith(".parquet"))
      val cur = t.currentSnapshot
      live += cur.fileCount
      liveBytes += cur.totalBytes
      tmp += files(t.tmpDir).size
    }
    val disk = files(catalog.root).map(Files.size).sum
    Storage(commits.toMap, metaBytes, onDisk, live, liveBytes, disk, tmp, missing.result().distinct)
  }
}

/** Correctness checks on a catalog's final state. */
object Checks {

  /** The manifest row count of each table equals Spark's count of that
    * snapshot.
    */
  def rowCounts(r: Report, label: String, spark: SparkSession, catalog: LstCatalog): Unit = {
    val bad = catalog.allTables.flatMap { ref =>
      val t = catalog.table(ref)
      val snap = t.currentSnapshot
      val counted = LstReader.scan(spark, t, snapshot = Some(snap)).df.count()
      if (counted == snap.totalRecords) None else Some(s"$ref manifest=${snap.totalRecords} spark=$counted")
    }
    r.check(s"$label.manifest_rows_match_spark", bad.isEmpty, bad.mkString("; "))
  }

  /** The three read shapes of `WorkloadRunner.runRead` (pricing summary,
    * order-status rollup, revenue join), with exact decimal sums so both
    * engines agree to the cent.
    */
  val Shapes: Vector[(String, String)] = Vector(
    "pricing" ->
      """SELECT l_returnflag, l_linestatus,
        |  SUM(CAST(l_quantity AS DECIMAL(18,2))) AS sum_qty,
        |  SUM(CAST(l_extendedprice AS DECIMAL(18,2))) AS sum_price, COUNT(*) AS n
        |FROM lineitem GROUP BY l_returnflag, l_linestatus""".stripMargin,
    "status" ->
      """SELECT o_orderstatus, COUNT(*) AS n,
        |  SUM(CAST(o_totalprice AS DECIMAL(18,2))) AS sum_price
        |FROM orders GROUP BY o_orderstatus""".stripMargin,
    "revenue" ->
      """SELECT o_orderstatus,
        |  SUM(CAST(l_extendedprice AS DECIMAL(18,2)) * (1 - CAST(l_discount AS DECIMAL(18,2)))) AS revenue
        |FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderstatus""".stripMargin)

  /** Order keys divisible by this are the oracle's sample. */
  val Sample = 8

  /** Each read shape over one partition of `db.lineitem` and `db.orders` at
    * their final snapshots, restricted to the key sample to keep the
    * oracle's load small: Spark's result on the LST scan must equal
    * DuckDB's (`repro.Oracle`) on the same rows.
    */
  def oracle(r: Report, label: String, spark: SparkSession, catalog: LstCatalog, db: String): Unit = {
    val li = catalog.table(db, "lineitem")
    val part = li.currentSnapshot.partitions.headOption
    val liDf = LstReader.scan(spark, li, partition = part).df.filter(col("l_orderkey") % Sample === 0)
    val ordDf = LstReader.scan(spark, catalog.table(db, "orders")).df.filter(col("o_orderkey") % Sample === 0)
    val v = s"pb_${System.nanoTime()}"
    liDf.createOrReplaceTempView(s"${v}_li")
    ordDf.createOrReplaceTempView(s"${v}_ord")
    Shapes.foreach { case (name, sql) =>
      val ok = try {
        val sparkSql = sql.replace("FROM lineitem JOIN orders", s"FROM ${v}_li JOIN ${v}_ord")
          .replace("FROM lineitem", s"FROM ${v}_li").replace("FROM orders", s"FROM ${v}_ord")
        val tables = name match {
          case "pricing" => Seq("lineitem" -> liDf)
          case "status"  => Seq("orders" -> ordDf)
          case _         => Seq("lineitem" -> liDf, "orders" -> ordDf)
        }
        Oracle.assertEquivalent(spark.sql(sparkSql), sql, tables: _*)
        (true, "")
      } catch { case NonFatal(e) => (false, e.getMessage) }
      r.check(s"$label.oracle_$name", ok._1, ok._2)
    }
    spark.catalog.dropTempView(s"${v}_li")
    spark.catalog.dropTempView(s"${v}_ord")
  }
}
