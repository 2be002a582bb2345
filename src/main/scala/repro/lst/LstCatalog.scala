package repro.lst

import java.nio.file.{Files, Path}
import scala.jdk.CollectionConverters._
import scala.util.Using

/** Minimal OpenHouse-style catalog: a directory tree of databases and
  * tables.
  *
  * Layout: `<root>/<db>/.db` (an empty marker naming the database) and
  * `<root>/<db>/<table>/...` ([[LstTable]] layout below each table
  * directory).
  */
final class LstCatalog(val root: Path) {
  Files.createDirectories(root)

  private def dbDir(db: String): Path = root.resolve(db)
  private def dbMarker(db: String): Path = dbDir(db).resolve(".db")

  def createDb(db: String): Unit = {
    Files.createDirectories(dbDir(db))
    Files.write(dbMarker(db), Array.emptyByteArray)
  }

  def createTable(db: String, name: String, partitionColumn: Option[String]): LstTable = {
    if (!Files.exists(dbMarker(db))) createDb(db)
    LstTable.create(TableRef(db, name), dbDir(db).resolve(name), partitionColumn)
  }

  def table(db: String, name: String): LstTable =
    LstTable.load(TableRef(db, name), dbDir(db).resolve(name))

  def table(ref: TableRef): LstTable = table(ref.db, ref.name)

  def listDbs: Vector[String] =
    if (!Files.isDirectory(root)) Vector.empty
    else Using.resource(Files.list(root))(_.iterator.asScala
      .filter(p => Files.exists(p.resolve(".db")))
      .map(_.getFileName.toString).toVector.sorted)

  def listTables(db: String): Vector[TableRef] =
    if (!Files.isDirectory(dbDir(db))) Vector.empty
    else Using.resource(Files.list(dbDir(db)))(_.iterator.asScala
      .filter(LstTable.exists)
      .map(p => TableRef(db, p.getFileName.toString)).toVector.sortBy(_.name))

  def allTables: Vector[TableRef] = listDbs.flatMap(listTables)

  def dropTable(db: String, name: String): Unit = deleteTree(dbDir(db).resolve(name))

  /** Remove the whole catalog tree, every table's data included. */
  def delete(): Unit = deleteTree(root)

  private def deleteTree(dir: Path): Unit =
    if (Files.exists(dir))
      Using.resource(Files.walk(dir))(_.iterator.asScala.toVector).reverse.foreach(Files.deleteIfExists(_))
}
