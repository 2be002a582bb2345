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
    val s = Snapshot(7L, Snapshot.OpAppend, Vector(df, df.copy(path = "/x/b.parquet")))
    assert(Json.read[Snapshot](Json.write(s)) == s)
  }

  test("Snapshot round-trip empty") {
    val s = Snapshot(0L, Snapshot.OpCreate, Vector.empty)
    assert(Json.read[Snapshot](Json.write(s)) == s)
  }

  test("TableMeta round-trip") {
    val m = TableMeta(Some("l_shipmonth"), Some("{\"type\":\"struct\"}"))
    assert(Json.read[TableMeta](Json.write(m)) == m)
  }

  test("TableMeta without schema round-trips") {
    val m = TableMeta(None, None)
    assert(Json.read[TableMeta](Json.write(m)) == m)
  }

  test("serialization is deterministic") {
    val s = Snapshot(7L, Snapshot.OpRewrite, Vector(df))
    assert(Json.write(s) == Json.write(s))
  }
}
