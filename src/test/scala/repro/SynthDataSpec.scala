package repro

import org.apache.spark.sql.functions._

class SynthDataSpec extends SparkSpec {

  test("lineitem row count scales with sf") {
    assert(SynthData.lineitemMonthly(spark, 0.001).count() == 6000L)
  }

  test("lineitem deterministic in seed") {
    val a = SynthData.lineitemMonthly(spark, 0.0005, seed = 3).agg(sum("l_extendedprice")).collect()(0).getDouble(0)
    val b = SynthData.lineitemMonthly(spark, 0.0005, seed = 3).agg(sum("l_extendedprice")).collect()(0).getDouble(0)
    assert(a == b)
  }

  test("lineitemMonthly adds l_shipmonth consistent with l_shipdate") {
    val df = SynthData.lineitemMonthly(spark, 0.0005, months = 4)
    val bad = df.filter(date_format(col("l_shipdate"), "yyyy-MM") =!= col("l_shipmonth")).count()
    assert(bad == 0L)
  }

  test("lineitemMonthly restricts the month range") {
    val df = SynthData.lineitemMonthly(spark, 0.001, months = 3)
    val months = df.select("l_shipmonth").distinct().collect().map(_.getString(0)).toSet
    assert(months.forall(m => m >= "1992-01" && m <= "1992-03"))
    assert(months.size >= 2)
  }

  test("orders keys are dense 1..N") {
    val df = SynthData.orders(spark, 0.001)
    assert(df.count() == 1500L)
    val mm = df.agg(min("o_orderkey"), max("o_orderkey")).collect()(0)
    assert(mm.getLong(0) == 1L && mm.getLong(1) == 1500L)
  }
}
