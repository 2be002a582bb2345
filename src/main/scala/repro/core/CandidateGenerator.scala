package repro.core

import repro.lst.{DataFile, LstCatalog, LstTable}

/** Candidate generation (first box of Figure 4): enumerate compaction work
  * units across the catalog under a scope strategy. Output order is
  * deterministic (sorted by table, then partition) per NFR2.
  */
object CandidateGenerator {

  /** Candidates for one table under `strategy`, read from the table's
    * current snapshot. The paper's hybrid strategy scopes a partitioned
    * table at the partition level and an unpartitioned one at the table
    * level (§6).
    */
  def forTable(table: LstTable, strategy: ScopeStrategy): Vector[Candidate] = {
    val snap = table.currentSnapshot
    def whole(files: Vector[DataFile]) = Vector(Candidate(table.ref, None, files))
    def byPartition = snap.files.groupBy(_.partition).toVector
      .sortBy(_._1.getOrElse(""))
      .map { case (part, files) => Candidate(table.ref, part, files) }
    strategy match {
      case ScopeStrategy.TableScope     => whole(snap.files)
      case ScopeStrategy.PartitionScope => byPartition
      case ScopeStrategy.Hybrid =>
        if (table.meta.partitionColumn.isDefined) byPartition else whole(snap.files)
      case ScopeStrategy.SnapshotScope(n) =>
        val cutoff = math.max(0L, snap.version - n)
        whole(snap.files.filter(_.addedVersion > cutoff))
    }
  }

  /** Enumerate candidates across the whole catalog under a strategy. */
  def generate(catalog: LstCatalog, strategy: ScopeStrategy): Vector[Candidate] =
    catalog.allTables.sortBy(_.toString).flatMap(ref => forTable(catalog.table(ref), strategy))
}
