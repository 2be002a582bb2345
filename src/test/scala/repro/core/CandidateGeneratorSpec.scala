package repro.core

import repro.lst._

class CandidateGeneratorSpec extends LstFixture {

  test("table scope yields one candidate with the full inventory") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 5)
    val cands = CandidateGenerator.forTable(t, ScopeStrategy.TableScope)
    assert(cands.size == 1)
    assert(cands.head.files.size == 5)
    assert(cands.head.partition.isEmpty)
  }

  test("partition scope yields one candidate per partition, sorted") {
    val c = freshCatalog()
    val t = loadedLineitem(c, months = 3)
    val cands = CandidateGenerator.forTable(t, ScopeStrategy.Hybrid)
    val parts = t.currentSnapshot.partitions
    assert(cands.map(_.partition.get) == parts)
    assert(cands.flatMap(_.files).size == t.currentSnapshot.fileCount)
    cands.foreach(cd => assert(cd.files.forall(_.partition == cd.partition)))
  }

  test("partition scope on unpartitioned table groups under None") {
    val c = freshCatalog()
    val t = loadedOrders(c, files = 4)
    val cands = CandidateGenerator.forTable(t, ScopeStrategy.Hybrid)
    assert(cands.size == 1 && cands.head.partition.isEmpty)
  }

  test("generate with TableScope covers all tables deterministically sorted") {
    val c = freshCatalog()
    loadedOrders(c, db = "db2", name = "o2", files = 2)
    loadedOrders(c, db = "db1", name = "o1", files = 2)
    val cands = CandidateGenerator.generate(c, ScopeStrategy.TableScope)
    assert(cands.map(_.table.toString) == Vector("db1.o1", "db2.o2"))
  }

  test("hybrid: partition scope for partitioned, table scope otherwise (§6)") {
    val c = freshCatalog()
    loadedLineitem(c, name = "li", months = 2)
    loadedOrders(c, name = "ord", files = 3)
    val cands = CandidateGenerator.generate(c, ScopeStrategy.Hybrid)
    val byTable = cands.groupBy(_.table.name)
    assert(byTable("li").forall(_.partition.isDefined))
    assert(byTable("li").size >= 2)
    assert(byTable("ord").size == 1 && byTable("ord").head.partition.isEmpty)
  }

  test("empty table yields an empty-file candidate at table scope") {
    val c = freshCatalog()
    c.createTable("db1", "empty", None)
    val cands = CandidateGenerator.generate(c, ScopeStrategy.TableScope)
    assert(cands.size == 1 && cands.head.files.isEmpty)
  }

  test("empty table yields no candidates at partition scope") {
    val c = freshCatalog()
    c.createTable("db1", "empty", Some("p"))
    assert(CandidateGenerator.generate(c, ScopeStrategy.Hybrid).isEmpty)
  }

  test("candidate id includes partition") {
    val c = Candidate(TableRef("d", "t"), Some("1992-01"), Vector.empty)
    assert(c.id == "d.t/1992-01")
  }
}
