package repro.tune

import org.apache.spark.sql.functions._

import repro.lst._

/** Model-structure tests plus a calibration cross-check of the analytic
  * query-cost relationship (duration grows with file count) against the
  * REAL Spark/LST substrate.
  */
class WorkloadModelSpec extends LstFixture {

  test("lower thresholds trigger compaction at least as often (monotone cost structure)") {
    val w = WorkloadModel.wp1
    // with threshold 0 compaction fires after every write: maximal rewrite
    // work, minimal scan amplification; duration finite either way
    val always = w.evaluate("smallFileCount", 0.0)
    val never = w.evaluate("smallFileCount", 1.01)
    assert(always > 0 && never > 0)
    assert(always != never)
  }

  test("contention scales compaction cost (wp1 vs wp3 at aggressive threshold)") {
    val aggressive = 0.05
    val wp1 = WorkloadModel.wp1.evaluate("smallFileCount", aggressive)
    val wp3 = WorkloadModel.wp3.evaluate("smallFileCount", aggressive)
    assert(wp3 < wp1, s"decoupled clusters must absorb rewrite cost: wp1=$wp1 wp3=$wp3")
  }

  test("non-partitioned tables pay whole-table rewrites") {
    val partitioned = WorkloadModel.wp1
    val whole = partitioned.copy(partitioned = false, initialLargeFiles = 200)
    val thr = 0.3
    val pd = partitioned.evaluate("smallFileCount", thr)
    val wd = whole.evaluate("smallFileCount", thr)
    assert(wd > pd, s"whole-table rewrites must cost more: $wd vs $pd")
  }

  test("entropy trait value drives the trigger differently than count") {
    val w = WorkloadModel.wp1
    // entropy of tiny files is near 1 → a 0.9 threshold still fires;
    // ratio-based count threshold 0.9 fires later. Durations must differ.
    assert(w.evaluate("fileEntropy", 0.9) != w.evaluate("smallFileCount", 0.9))
  }

  test("an unknown trigger trait name is rejected") {
    intercept[IllegalArgumentException](WorkloadModel.wp1.evaluate("smallFileRatio", 0.5))
  }

  test("evaluate is deterministic") {
    val w = WorkloadModel.wp3
    assert(w.evaluate("smallFileCount", 0.4) == w.evaluate("smallFileCount", 0.4))
  }

  test("calibration: real Spark scan cost grows with file count (the model's qtime term)") {
    // the analytic model charges perFileSec per file scanned; verify the
    // real substrate exhibits the same monotone relationship
    val c = freshCatalog()
    val few = c.createTable("db1", "few", None)
    val many = c.createTable("db1", "many", None)
    val df = tinyOrders(sf = 0.005)
    LstWriter.append(spark, few, df, 2)
    LstWriter.append(spark, many, df, 96)
    def timeScan(t: LstTable): Double = {
      // warmup then measure best-of-3 to suppress JIT noise
      def once(): Double = {
        val t0 = System.nanoTime()
        LstReader.scan(spark, t).df.agg(sum(col("o_totalprice"))).collect()
        (System.nanoTime() - t0) / 1e6
      }
      once(); Vector.fill(5)(once()).min
    }
    val tFew = timeScan(few)
    val tMany = timeScan(many)
    assert(many.currentSnapshot.fileCount > few.currentSnapshot.fileCount * 10)
    assert(tMany > tFew, f"scanning 96 files ($tMany%.0f ms) should beat 2 files ($tFew%.0f ms)")
  }
}
