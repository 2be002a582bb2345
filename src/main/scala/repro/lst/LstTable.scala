package repro.lst

import java.nio.file.{Files, Path, StandardCopyOption}
import java.util.concurrent.ConcurrentHashMap

import repro.util.Json

/** A log-structured table on the local filesystem, and the one owner of
  * its on-disk format. Below `root`, `data/` holds the immutable Parquet
  * data files, `tmp/` stages in-flight writes, and the companion's private
  * path helpers name the metadata files: the static [[TableMeta]], one
  * [[Snapshot]] per version, and the version hint, written last.
  *
  * Commit protocol: writers plan against a base version, stage files under
  * `tmp/`, then call [[commit]]. Validation and the version bump are atomic
  * per table (JVM-wide lock registry keyed by the table root — the
  * reproduction runs all writers in one driver JVM, so this models the
  * catalog's atomic swap). Conflict semantics follow Apache Iceberg v1.2 as
  * characterized in the paper, at any base version:
  *
  *   - every op conflicts iff a file it removes is not in the current
  *     snapshot, so [[Append]] (which removes nothing) never conflicts and
  *     rebases onto the current inventory;
  *   - [[Rewrite]] also conflicts with ANY rewrite committed after its base —
  *     even on disjoint partitions (§4.4: "compaction operations executed
  *     concurrently could result in conflicts when targeting distinct
  *     partitions"). Intervening overwrites conflict at file level only.
  */
final class LstTable private (val ref: TableRef, val root: Path) {
  import LstTable._

  def dataDir: Path = root.resolve("data")
  def tmpDir: Path = root.resolve("tmp")

  private val lock = locks.computeIfAbsent(root.toAbsolutePath.toString, _ => new Object)

  def meta: TableMeta = Json.read[TableMeta](Files.readString(tableFile(root)))

  private def writeMeta(m: TableMeta): Unit = Files.writeString(tableFile(root), Json.write(m))

  /** Record the Spark schema (StructType JSON) the first time data lands, so
    * scans of an empty table remain typed. Idempotent after first call.
    */
  def setSchemaIfAbsent(schemaJson: String): Unit = lock.synchronized {
    val m = meta
    if (m.schemaJson.isEmpty) writeMeta(m.copy(schemaJson = Some(schemaJson)))
  }

  def currentVersion: Long = Files.readString(hintFile(root)).trim.toLong

  def snapshotAt(v: Long): Snapshot =
    Json.read[Snapshot](Files.readString(versionFile(root, v)))

  def currentSnapshot: Snapshot = snapshotAt(currentVersion)

  /** All versions committed after `base`, oldest first. */
  def snapshotsSince(base: Long): Vector[Snapshot] =
    ((base + 1) to currentVersion).map(snapshotAt).toVector

  /** Validate `op` against the current inventory and, if valid, persist the
    * next version, stamping it as the `addedVersion` of every added file.
    * Throws [[CommitConflictException]] on a lost race; the caller (writer
    * or compaction scheduler) owns retry policy.
    */
  def commit(base: Long, op: CommitOp): Snapshot = lock.synchronized {
    val cur = currentVersion
    val curSnap = snapshotAt(cur)
    val isRewrite = op.isInstanceOf[Rewrite]
    def conflict(msg: String) = new CommitConflictException(ref,
      if (isRewrite) "cluster" else "client", s"base=$base cur=$cur; $msg")
    // Iceberg v1.2 as the paper characterizes it: a rewrite conflicts with
    // ANY intervening rewrite on the table, even one touching disjoint
    // partitions (§4.4); no rewrite can follow a current base.
    if (isRewrite && base < cur)
      snapshotsSince(base).find(_.operation == Snapshot.OpRewrite).foreach { s =>
        throw conflict(s"intervening rewrite at v${s.version} (Iceberg v1.2 coarse rewrite validation)")
      }
    val removed = op.removed.toSet
    val missing = removed -- curSnap.files.iterator.map(_.path)
    if (missing.nonEmpty)
      throw conflict(s"${missing.size} file(s) to remove are not in the current snapshot")
    val next = Snapshot(cur + 1, op.operation,
      curSnap.files.filterNot(f => removed(f.path)) ++ op.added.map(_.copy(addedVersion = cur + 1)))
    publish(next)
    next
  }

  /** Write `s` as its version file, then swap the hint to it atomically:
    * lock-free readers never observe a torn hint, and a hint only ever
    * names a written version.
    */
  private def publish(s: Snapshot): Unit = {
    Files.writeString(versionFile(root, s.version), Json.write(s))
    val hintTmp = metaDir(root).resolve(s".hint-${java.util.UUID.randomUUID()}")
    Files.writeString(hintTmp, s.version.toString)
    Files.move(hintTmp, hintFile(root), StandardCopyOption.ATOMIC_MOVE,
      StandardCopyOption.REPLACE_EXISTING)
  }

  /** Move a staged file into `data/` under a fresh unique name; returns the
    * final absolute path. Staged files come from Spark's Parquet writer.
    */
  def adoptStagedFile(staged: Path): Path = {
    val target = dataDir.resolve(s"${java.util.UUID.randomUUID()}.parquet")
    Files.move(staged, target, StandardCopyOption.ATOMIC_MOVE)
    target
  }
}

object LstTable {
  private val locks = new ConcurrentHashMap[String, Object]()

  private def metaDir(root: Path): Path = root.resolve("meta")
  private def tableFile(root: Path): Path = metaDir(root).resolve("table.json")
  private def versionFile(root: Path, v: Long): Path = metaDir(root).resolve(f"v$v%06d.json")
  private def hintFile(root: Path): Path = metaDir(root).resolve("version-hint.txt")

  /** Whether `root` holds a table: [[create]] writes the hint last. */
  def exists(root: Path): Boolean = Files.exists(hintFile(root))

  /** Create a brand-new table at `root` (must not already hold one). */
  def create(ref: TableRef, root: Path, partitionColumn: Option[String]): LstTable = {
    require(!exists(root), s"table already exists at $root")
    val t = new LstTable(ref, root)
    Seq(t.dataDir, t.tmpDir, metaDir(root)).foreach(Files.createDirectories(_))
    t.writeMeta(TableMeta(partitionColumn, None))
    t.publish(Snapshot(0L, Snapshot.OpCreate, Vector.empty))
    t
  }

  /** Open an existing table. */
  def load(ref: TableRef, root: Path): LstTable = {
    require(exists(root), s"no table at $root")
    new LstTable(ref, root)
  }
}
