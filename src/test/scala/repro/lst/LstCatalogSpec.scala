package repro.lst

class LstCatalogSpec extends LstFixture {

  test("createTable auto-creates db") {
    val c = freshCatalog()
    val t = c.createTable("dbX", "t1", None, nowMs = 77L)
    assert(t.ref == TableRef("dbX", "t1"))
    assert(c.listDbs == Vector("dbX"))
    assert(t.meta.createdAtMs == 77L)
  }

  test("table() loads an existing table") {
    val c = freshCatalog()
    c.createTable("db1", "t1", Some("p"))
    val t = c.table("db1", "t1")
    assert(t.meta.partitionColumn.contains("p"))
  }

  test("listTables sorted, allTables across dbs") {
    val c = freshCatalog()
    c.createTable("db2", "zz", None)
    c.createTable("db1", "bb", None)
    c.createTable("db1", "aa", None)
    assert(c.listTables("db1").map(_.name) == Vector("aa", "bb"))
    assert(c.allTables.map(_.toString) == Vector("db1.aa", "db1.bb", "db2.zz"))
  }

  test("listTables of missing db is empty") {
    assert(freshCatalog().listTables("nope").isEmpty)
  }

  test("dropTable removes everything") {
    val c = freshCatalog()
    c.createTable("db1", "t1", None)
    c.dropTable("db1", "t1")
    assert(c.listTables("db1").isEmpty)
  }
}
