package repro.core

import repro.lst.{LstCatalog, LstTable}

/** Candidate generation (first box of Figure 4): enumerate compaction work
  * units across the catalog under a scope strategy. Output order is
  * deterministic (sorted by table, then partition) per NFR2.
  */
object CandidateGenerator {

  /** Candidates for one table under `strategy`, read from the table's
    * current snapshot. The paper's hybrid strategy scopes a partitioned
    * table at the partition level and an unpartitioned one at the table
    * level (§6): one candidate per partition value, which is `None` for
    * every file of an unpartitioned table.
    */
  def forTable(table: LstTable, strategy: ScopeStrategy): Vector[Candidate] = {
    val snap = table.currentSnapshot
    strategy match {
      case ScopeStrategy.TableScope => Vector(Candidate(table.ref, None, snap.files))
      case ScopeStrategy.Hybrid =>
        snap.files.groupBy(_.partition).toVector
          .sortBy(_._1.getOrElse(""))
          .map { case (part, files) => Candidate(table.ref, part, files) }
    }
  }

  /** Enumerate candidates across the whole catalog under a strategy. */
  def generate(catalog: LstCatalog, strategy: ScopeStrategy): Vector[Candidate] =
    catalog.allTables.sortBy(_.toString).flatMap(ref => forTable(catalog.table(ref), strategy))
}
