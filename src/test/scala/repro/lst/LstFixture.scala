package repro.lst

import java.nio.file.{Files, Path}
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import scala.jdk.CollectionConverters._
import scala.util.Using

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{SparkSpec, SynthData}

/** Shared helpers for LST-layer tests: fresh temp catalogs, deleted after
  * the suite, and tiny deterministic TPC-H-lite tables.
  */
trait LstFixture extends SparkSpec {

  private val tempDirs = new ConcurrentLinkedQueue[Path]()

  private def tempDir(prefix: String): Path = {
    val dir = Files.createTempDirectory(prefix)
    tempDirs.add(dir)
    dir
  }

  def freshCatalog(): LstCatalog = new LstCatalog(tempDir("lst-cat-"))

  def freshTableDir(): Path = tempDir("lst-tbl-")

  // a table directory is a directory tree too, so the catalog's delete serves both
  override def afterAll(): Unit =
    try tempDirs.asScala.foreach(new LstCatalog(_).delete()) finally super.afterAll()

  /** Tiny lineitem with monthly partition column (SF picks ~600 rows/0.0001). */
  def tinyLineitem(sf: Double = 0.001, months: Int = 3, seed: Long = 0): DataFrame =
    SynthData.lineitemMonthly(spark, sf, months, seed)

  def tinyOrders(sf: Double = 0.001, seed: Long = 1): DataFrame =
    SynthData.orders(spark, sf, seed)

  /** Create a partitioned lineitem LST table and load it with `files` files
    * per partition.
    */
  def loadedLineitem(cat: LstCatalog, db: String = "db1", name: String = "lineitem",
                     sf: Double = 0.001, months: Int = 3, filesPerPartition: Int = 4,
                     seed: Long = 0): LstTable = {
    val t = cat.createTable(db, name, Some("l_shipmonth"))
    LstWriter.append(spark, t, tinyLineitem(sf, months, seed), filesPerPartition)
    t
  }

  /** Create an unpartitioned orders LST table with `files` files. */
  def loadedOrders(cat: LstCatalog, db: String = "db1", name: String = "orders",
                   sf: Double = 0.001, files: Int = 6, seed: Long = 1): LstTable = {
    val t = cat.createTable(db, name, None)
    LstWriter.append(spark, t, tinyOrders(sf, seed), files)
    t
  }

  /** Sum of a numeric column via the LST read path (order-insensitive probe
    * for data equality).
    */
  def probeSum(table: LstTable, colName: String): Double = {
    val scan = LstReader.scan(spark, table)
    if (scan.filesScanned == 0) 0.0
    else scan.df.agg(sum(col(colName))).collect()(0).getDouble(0)
  }

  def fileNames(dir: Path): Set[String] =
    Using.resource(Files.list(dir))(_.iterator.asScala.map(_.getFileName.toString).toSet)

  /** Names of the files in `data/` that the current snapshot does not list:
    * files a commit removed, and anything a failed write leaked.
    */
  def unreferencedDataFiles(table: LstTable): Set[String] =
    fileNames(table.dataDir) -- table.currentSnapshot.files.map(f => Path.of(f.path).getFileName.toString)

  /** What a failed write must leave: every file in `data/` referenced by
    * the current snapshot, and an empty `tmp/`.
    */
  def assertNothingLeftBehind(table: LstTable): Unit = {
    assert(unreferencedDataFiles(table).isEmpty, s"unreferenced data files: ${unreferencedDataFiles(table)}")
    assert(fileNames(table.tmpDir).isEmpty, s"tmp/ holds ${fileNames(table.tmpDir)}")
  }

  /** The Spark jobs `body` launches from this thread: how many, and the
    * shuffle bytes their stages write. The jobs run under a fresh job group;
    * a marker job in a second group then runs, and once the listener has
    * seen it, it has seen every job and stage `body` started.
    */
  def jobsDuring(body: => Unit): SparkJobs = {
    val sc = spark.sparkContext
    val group = s"jobs-during-${java.util.UUID.randomUUID()}"
    val groups = new ConcurrentLinkedQueue[String]()
    val stages = ConcurrentHashMap.newKeySet[Int]()
    val shuffleBytes = new ConcurrentHashMap[Int, Long]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { g =>
          groups.add(g)
          if (g == group) e.stageIds.foreach(stages.add(_))
        }
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
        shuffleBytes.merge(e.stageInfo.stageId,
          e.stageInfo.taskMetrics.shuffleWriteMetrics.bytesWritten, _ + _)
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "counted")
      try body finally sc.setJobGroup(s"$group-end", "marker")
      sc.parallelize(Seq(1), 1).count()
      val deadline = System.nanoTime() + 30L * 1000000000L
      while (!groups.contains(s"$group-end") && System.nanoTime() < deadline) Thread.sleep(10)
      assert(groups.contains(s"$group-end"), "the listener never saw the marker job")
      SparkJobs(groups.asScala.count(_ == group),
        stages.asScala.toSeq.map(shuffleBytes.getOrDefault(_, 0L)).sum)
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }
}

/** What [[LstFixture.jobsDuring]] saw: the jobs launched and the shuffle
  * bytes written by their stages.
  */
final case class SparkJobs(count: Int, shuffleBytesWritten: Long)
