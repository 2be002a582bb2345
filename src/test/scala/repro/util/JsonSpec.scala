package repro.util

import org.scalatest.funsuite.AnyFunSuite

import repro.lst._

class JsonSpec extends AnyFunSuite {

  private val df = DataFile("/x/a.parquet", Some("1992-01"), 1234L, 56L, 3L)

  test("DataFile round-trip") {
    assert(Json.read[DataFile](Json.write(df)) == df)
  }

  test("DataFile with None partition round-trips") {
    val d = df.copy(partition = None)
    assert(Json.read[DataFile](Json.write(d)) == d)
  }

  test("Snapshot round-trip with files") {
    val s = Snapshot(7L, Snapshot.OpAppend, 1000L, Vector(df, df.copy(path = "/x/b.parquet")), 2, 0)
    assert(Json.read[Snapshot](Json.write(s)) == s)
  }

  test("Snapshot round-trip empty") {
    val s = Snapshot(0L, Snapshot.OpCreate, 0L, Vector.empty, 0, 0)
    assert(Json.read[Snapshot](Json.write(s)) == s)
  }

  test("TableMeta round-trip") {
    val m = TableMeta("db1", "t1", Some("l_shipmonth"), 99L, Some("{\"type\":\"struct\"}"))
    assert(Json.read[TableMeta](Json.write(m)) == m)
  }

  test("TableMeta without schema round-trips") {
    val m = TableMeta("db1", "t1", None, 99L, None)
    assert(Json.read[TableMeta](Json.write(m)) == m)
  }

  test("serialization is deterministic") {
    val s = Snapshot(7L, Snapshot.OpRewrite, 1000L, Vector(df), 1, 2)
    assert(Json.write(s) == Json.write(s))
  }
}
