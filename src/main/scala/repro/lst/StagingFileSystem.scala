package repro.lst

import java.nio.file.Files
import java.nio.file.attribute.PosixFilePermissions

import org.apache.hadoop.fs.{Path, RawLocalFileSystem}
import org.apache.hadoop.fs.permission.FsPermission

/** The local filesystem [[LstWriter.stage]]'s Spark writes go through.
  *
  * Without Hadoop's native library, `RawLocalFileSystem.setPermission`
  * forks a `chmod` process for every file and directory a Parquet write
  * creates. This one sets the same mode bits through NIO instead, in
  * process. Being the raw filesystem, it also writes no `.crc` sidecars,
  * which the LST never adopts.
  *
  * NIO cannot express the sticky bit, so a mode carrying it takes Hadoop's
  * own path; a Spark write never asks for one.
  */
class StagingFileSystem extends RawLocalFileSystem {
  override def setPermission(p: Path, permission: FsPermission): Unit =
    if (permission.getStickyBit) super.setPermission(p, permission)
    else {
      val mode = Seq(permission.getUserAction, permission.getGroupAction, permission.getOtherAction)
        .map(_.SYMBOL).mkString
      Files.setPosixFilePermissions(pathToFile(p).toPath, PosixFilePermissions.fromString(mode))
    }
}
