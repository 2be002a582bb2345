package repro.lst

import java.nio.file.{Files, Path}

import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.{Path => HPath}
import org.apache.hadoop.fs.permission.FsPermission
import org.scalatest.funsuite.AnyFunSuite

class StagingFileSystemSpec extends AnyFunSuite {
  import StagingFileSystemSpec.mode

  private def octal(s: String): Int = Integer.parseInt(s, 8)

  test("setPermission sets exactly the requested mode on a file and a directory") {
    val fs = new StagingFileSystem
    fs.initialize(java.net.URI.create("file:///"), new Configuration())
    val dir = Files.createTempDirectory("staging-fs-")
    val file = Files.createFile(dir.resolve("f"))
    try {
      for (p <- Seq(file, dir); m <- Seq("0600", "0755", "0644")) {
        fs.setPermission(new HPath(p.toUri), new FsPermission(octal(m).toShort))
        assert(mode(p) == octal(m), f"$p: ${mode(p)}%o, wanted $m")
      }
      // NIO cannot set the sticky bit, so this mode must take Hadoop's path
      fs.setPermission(new HPath(dir.toUri), new FsPermission(octal("1755").toShort))
      assert(mode(dir) == octal("1755"), f"$dir: ${mode(dir)}%o")
    } finally {
      Files.deleteIfExists(file)
      Files.deleteIfExists(dir)
    }
  }
}

object StagingFileSystemSpec {

  /** Permission bits of `p`, sticky, setuid and setgid included. */
  def mode(p: Path): Int = Files.getAttribute(p, "unix:mode").asInstanceOf[Int] & 0xfff
}
