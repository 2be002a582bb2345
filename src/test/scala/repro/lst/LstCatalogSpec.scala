package repro.lst

import java.nio.file.{Files, Path}
import scala.util.Using

class LstCatalogSpec extends LstFixture {

  test("createTable auto-creates db") {
    val c = freshCatalog()
    val t = c.createTable("dbX", "t1", None)
    assert(t.ref == TableRef("dbX", "t1"))
    assert(c.listDbs == Vector("dbX"))
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

  test("listTables skips a table directory that has no version hint") {
    val c = freshCatalog()
    c.createTable("db1", "t1", None)
    // a create that stopped before its hint: meta/ exists, the hint does not
    Files.createDirectories(c.root.resolve("db1").resolve("t2").resolve("meta"))
    assert(c.listTables("db1").map(_.name) == Vector("t1"))
    intercept[IllegalArgumentException](c.table("db1", "t2"))
  }

  test("dropTable removes everything") {
    val c = freshCatalog()
    c.createTable("db1", "t1", None)
    c.dropTable("db1", "t1")
    assert(c.listTables("db1").isEmpty)
  }

  test("listing the catalog closes its directory streams") {
    val c = freshCatalog()
    c.createTable("db1", "t1", None)
    c.createTable("db2", "t2", None)
    def openFds: Int = Using.resource(Files.list(Path.of("/proc/self/fd")))(_.count().toInt)
    c.allTables // load the classes it uses before counting
    val before = openFds
    (1 to 500).foreach(_ => c.allTables)
    // each leaked stream would hold one descriptor: 1500 over these calls; the
    // slack covers descriptors other JVM threads open meanwhile
    assert(openFds - before < 20, s"open descriptors: $before before, $openFds after")
  }
}
