package repro.lst

import java.nio.file.{Files, Path, StandardCopyOption}
import java.util.concurrent.ConcurrentHashMap
import scala.jdk.CollectionConverters._
import scala.util.Using

import repro.util.Json

/** A log-structured table on the local filesystem.
  *
  * Layout:
  * {{{
  *   <root>/data/<uuid>.parquet      immutable data files
  *   <root>/meta/table.json          static TableMeta
  *   <root>/meta/v<N>.json           Snapshot for version N
  *   <root>/meta/version-hint.txt    current version number
  *   <root>/tmp/...                  staging for in-flight writes
  * }}}
  *
  * Commit protocol: writers plan against a base version, stage files under
  * `tmp/`, then call [[commit]]. Validation and the version bump are atomic
  * per table (JVM-wide lock registry keyed by the table root — the
  * reproduction runs all writers in one driver JVM, so this models the
  * catalog's atomic swap). Conflict semantics follow Apache Iceberg v1.2 as
  * characterized in the paper:
  *
  *   - [[Append]]   never conflicts (rebase onto current inventory);
  *   - [[Overwrite]] conflicts iff a file it removes is already gone;
  *   - [[Rewrite]]  conflicts with ANY intervening rewrite — even on
  *     disjoint partitions (§4.4: "compaction operations executed
  *     concurrently could result in conflicts when targeting distinct
  *     partitions") — and, at file level only, with an intervening
  *     overwrite that removed one of its input files.
  */
final class LstTable private (val ref: TableRef, val root: Path) {
  import LstTable._

  private def metaDir: Path = root.resolve("meta")
  private def hintFile: Path = metaDir.resolve("version-hint.txt")
  private def versionFile(v: Long): Path = metaDir.resolve(f"v$v%06d.json")
  def dataDir: Path = root.resolve("data")
  def tmpDir: Path = root.resolve("tmp")

  private val lock = locks.computeIfAbsent(root.toAbsolutePath.toString, _ => new Object)

  def meta: TableMeta = Json.read[TableMeta](Files.readString(metaDir.resolve("table.json")))

  /** Record the Spark schema (StructType JSON) the first time data lands, so
    * scans of an empty table remain typed. Idempotent after first call.
    */
  def setSchemaIfAbsent(schemaJson: String): Unit = lock.synchronized {
    val m = meta
    if (m.schemaJson.isEmpty) {
      Files.writeString(metaDir.resolve("table.json"), Json.write(m.copy(schemaJson = Some(schemaJson))))
    }
  }

  def currentVersion: Long = Files.readString(hintFile).trim.toLong

  def snapshotAt(v: Long): Snapshot =
    Json.read[Snapshot](Files.readString(versionFile(v)))

  def currentSnapshot: Snapshot = snapshotAt(currentVersion)

  /** All versions committed after `base`, oldest first. */
  def snapshotsSince(base: Long): Vector[Snapshot] = {
    val cur = currentVersion
    ((base + 1) to cur).map(snapshotAt).toVector
  }

  /** Validate `op` against the current inventory and, if valid, persist the
    * next version. Throws [[CommitConflictException]] on a lost race; the
    * caller (writer or compaction scheduler) owns retry policy.
    */
  def commit(base: Long, op: CommitOp): Snapshot = lock.synchronized {
    val cur = currentVersion
    val curSnap = snapshotAt(cur)
    if (cur != base) {
      val curPaths = curSnap.files.iterator.map(_.path).toSet
      op match {
        case Append(_) => // fast-append: always rebases
        case Overwrite(removed, _) =>
          val missing = removed.filterNot(curPaths)
          if (missing.nonEmpty)
            throw new CommitConflictException(ref, "client",
              s"base=$base cur=$cur; ${missing.size} file(s) to overwrite were removed concurrently")
        case Rewrite(removed, _) =>
          // Iceberg v1.2 semantics as the paper characterizes them: a
          // rewrite conflicts with ANY intervening rewrite on the table —
          // even one touching disjoint partitions (§4.4) — while user
          // overwrites are validated at FILE level: they only conflict if
          // they removed files this rewrite is replacing.
          val intervening = snapshotsSince(base)
          intervening.find(_.operation == Snapshot.OpRewrite).foreach { s =>
            throw new CommitConflictException(ref, "cluster",
              s"base=$base cur=$cur; intervening rewrite at v${s.version} (Iceberg v1.2 coarse rewrite validation)")
          }
          val missing = removed.filterNot(curPaths)
          if (missing.nonEmpty)
            throw new CommitConflictException(ref, "cluster",
              s"base=$base cur=$cur; ${missing.size} rewritten file(s) removed by a concurrent write")
      }
    }
    val removedPaths: Set[String] = op match {
      case Append(_)        => Set.empty
      case Overwrite(r, _)  => r.toSet
      case Rewrite(r, _)    => r.toSet
    }
    val newFiles = curSnap.files.filterNot(f => removedPaths(f.path)) ++ op.added
    val next = Snapshot(
      version = cur + 1,
      operation = op.operation,
      timestampMs = System.currentTimeMillis(),
      files = newFiles,
      addedCount = op.added.size,
      removedCount = removedPaths.size)
    Files.writeString(versionFile(next.version), Json.write(next))
    // Atomic hint swap: lock-free readers must never observe a torn write.
    val hintTmp = metaDir.resolve(s".hint-${java.util.UUID.randomUUID()}")
    Files.writeString(hintTmp, next.version.toString)
    Files.move(hintTmp, hintFile, StandardCopyOption.ATOMIC_MOVE,
      StandardCopyOption.REPLACE_EXISTING)
    next
  }

  /** Move a staged file into `data/` under a fresh unique name; returns the
    * final absolute path. Staged files come from Spark's Parquet writer.
    */
  def adoptStagedFile(staged: Path): Path = {
    val target = dataDir.resolve(s"${java.util.UUID.randomUUID()}.parquet")
    Files.move(staged, target, StandardCopyOption.ATOMIC_MOVE)
    target
  }

  /** Delete tmp leftovers and data files unreferenced by the current
    * snapshot (older snapshots become unreadable — a simple expire).
    */
  def vacuum(): Int = lock.synchronized {
    val live = currentSnapshot.files.iterator.map(f => Path.of(f.path).getFileName.toString).toSet
    var removed = 0
    if (Files.isDirectory(dataDir)) {
      Using.resource(Files.list(dataDir))(_.iterator.asScala.toVector).foreach { p =>
        if (!live(p.getFileName.toString)) { Files.deleteIfExists(p); removed += 1 }
      }
    }
    removed
  }
}

object LstTable {
  private val locks = new ConcurrentHashMap[String, Object]()

  /** Create a brand-new table at `root` (must not already hold one). */
  def create(ref: TableRef, root: Path, partitionColumn: Option[String], nowMs: Long): LstTable = {
    val t = new LstTable(ref, root)
    require(!Files.exists(root.resolve("meta").resolve("version-hint.txt")),
      s"table already exists at $root")
    Files.createDirectories(t.dataDir)
    Files.createDirectories(t.tmpDir)
    Files.createDirectories(root.resolve("meta"))
    Files.writeString(root.resolve("meta").resolve("table.json"),
      Json.write(TableMeta(ref.db, ref.name, partitionColumn, nowMs, None)))
    val v0 = Snapshot(0L, Snapshot.OpCreate, nowMs, Vector.empty, 0, 0)
    Files.writeString(root.resolve("meta").resolve("v000000.json"), Json.write(v0))
    Files.writeString(root.resolve("meta").resolve("version-hint.txt"), "0")
    t
  }

  /** Open an existing table. */
  def load(ref: TableRef, root: Path): LstTable = {
    require(Files.exists(root.resolve("meta").resolve("version-hint.txt")),
      s"no table at $root")
    new LstTable(ref, root)
  }
}
