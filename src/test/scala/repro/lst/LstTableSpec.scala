package repro.lst

class LstTableSpec extends LstFixture {

  private def df(path: String, part: Option[String] = None, size: Long = 100L, v: Long = 1L) =
    DataFile(path, part, size, 10L, v)

  test("create initializes v0 empty snapshot") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    assert(t.currentVersion == 0L)
    assert(t.currentSnapshot.files.isEmpty)
    assert(t.currentSnapshot.operation == Snapshot.OpCreate)
    assert(t.meta == TableMeta(None, None))
  }

  test("create twice at same root fails") {
    val dir = freshTableDir()
    LstTable.create(TableRef("d", "t"), dir, None)
    intercept[IllegalArgumentException](LstTable.create(TableRef("d", "t"), dir, None))
  }

  test("load of missing table fails") {
    intercept[IllegalArgumentException](LstTable.load(TableRef("d", "t"), freshTableDir()))
  }

  test("append commit bumps version and accumulates files") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.commit(0, Append(Vector(df("/a"), df("/b"))))
    t.commit(1, Append(Vector(df("/c"))))
    assert(t.currentVersion == 2L)
    assert(t.currentSnapshot.files.map(_.path) == Vector("/a", "/b", "/c"))
  }

  test("append against stale base rebases without conflict") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.commit(0, Append(Vector(df("/a"))))
    // stale base 0 while current is 1
    val snap = t.commit(0, Append(Vector(df("/b"))))
    assert(snap.version == 2L)
    assert(snap.files.map(_.path).toSet == Set("/a", "/b"))
  }

  test("overwrite replaces files") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.commit(0, Append(Vector(df("/a"), df("/b"))))
    val snap = t.commit(1, Overwrite(Vector("/a"), Vector(df("/a2"))))
    assert(snap.files.map(_.path).toSet == Set("/b", "/a2"))
    assert(snap.operation == Snapshot.OpOverwrite)
  }

  test("overwrite conflicts when victim already removed") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.commit(0, Append(Vector(df("/a"), df("/b"))))
    t.commit(1, Overwrite(Vector("/a"), Vector(df("/a2")))) // v2 removes /a
    val ex = intercept[CommitConflictException] {
      t.commit(1, Overwrite(Vector("/a"), Vector(df("/a3"))))
    }
    assert(ex.kind == "client")
  }

  test("overwrite at the current version conflicts when a victim is not in the snapshot") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.commit(0, Append(Vector(df("/a"))))
    val ex = intercept[CommitConflictException] {
      t.commit(1, Overwrite(Vector("/a", "/z"), Vector(df("/a2"))))
    }
    assert(ex.kind == "client")
    assert(t.currentVersion == 1L)
  }

  test("rewrite at the current version conflicts when an input is not in the snapshot") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.commit(0, Append(Vector(df("/a"))))
    val ex = intercept[CommitConflictException] {
      t.commit(1, Rewrite(Vector("/a", "/z"), Vector(df("/big"))))
    }
    assert(ex.kind == "cluster")
    assert(t.currentVersion == 1L)
  }

  test("overwrite with stale base succeeds when victims still live") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.commit(0, Append(Vector(df("/a"), df("/b"))))
    t.commit(1, Append(Vector(df("/c")))) // intervening append
    val snap = t.commit(1, Overwrite(Vector("/a"), Vector(df("/a2"))))
    assert(snap.files.map(_.path).toSet == Set("/b", "/c", "/a2"))
  }

  test("rewrite replaces files and marks operation") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.commit(0, Append(Vector(df("/a"), df("/b"))))
    val snap = t.commit(1, Rewrite(Vector("/a", "/b"), Vector(df("/big"))))
    assert(snap.operation == Snapshot.OpRewrite)
    assert(snap.files.map(_.path) == Vector("/big"))
  }

  test("rewrite rebases over intervening append") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.commit(0, Append(Vector(df("/a"), df("/b"))))
    t.commit(1, Append(Vector(df("/c")))) // user append mid-compaction
    val snap = t.commit(1, Rewrite(Vector("/a", "/b"), Vector(df("/big"))))
    assert(snap.files.map(_.path).toSet == Set("/c", "/big"))
  }

  test("rewrite tolerates a disjoint user overwrite (file-level validation)") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), Some("p"))
    t.commit(0, Append(Vector(df("/a", Some("p1")), df("/b", Some("p2")))))
    t.commit(1, Overwrite(Vector("/b"), Vector(df("/b2", Some("p2"))))) // touches p2 only
    val snap = t.commit(1, Rewrite(Vector("/a"), Vector(df("/a2", Some("p1"))))) // p1 only
    assert(snap.files.map(_.path).toSet == Set("/b2", "/a2"))
  }

  test("rewrite conflicts when a user overwrite removed its input files") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.commit(0, Append(Vector(df("/a"), df("/b"))))
    t.commit(1, Overwrite(Vector("/a"), Vector(df("/a2"))))
    val ex = intercept[CommitConflictException] {
      t.commit(1, Rewrite(Vector("/a", "/b"), Vector(df("/big"))))
    }
    assert(ex.kind == "cluster")
  }

  test("rewrite conflicts with intervening rewrite even on disjoint partitions") {
    // the Iceberg v1.2 behaviour the paper reports (§4.4)
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), Some("p"))
    t.commit(0, Append(Vector(df("/a", Some("p1")), df("/b", Some("p2")))))
    t.commit(1, Rewrite(Vector("/b"), Vector(df("/b2", Some("p2"))))) // compacts p2
    val ex = intercept[CommitConflictException] {
      t.commit(1, Rewrite(Vector("/a"), Vector(df("/a2", Some("p1"))))) // compacts p1
    }
    assert(ex.kind == "cluster")
  }

  test("rewrite conflicts with intervening rewrite") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.commit(0, Append(Vector(df("/a"), df("/b"))))
    t.commit(1, Rewrite(Vector("/a"), Vector(df("/a2"))))
    val ex = intercept[CommitConflictException] {
      t.commit(1, Rewrite(Vector("/b"), Vector(df("/b2"))))
    }
    assert(ex.kind == "cluster")
  }

  test("rewrite conflicts when victim file vanished") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.commit(0, Append(Vector(df("/a"))))
    t.commit(1, Append(Vector(df("/c"))))
    // /z never existed in current inventory
    val ex = intercept[CommitConflictException] {
      t.commit(1, Rewrite(Vector("/z"), Vector(df("/z2"))))
    }
    assert(ex.kind == "cluster")
  }

  test("snapshotsSince returns intervening versions oldest-first") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.commit(0, Append(Vector(df("/a"))))
    t.commit(1, Append(Vector(df("/b"))))
    t.commit(2, Append(Vector(df("/c"))))
    assert(t.snapshotsSince(1).map(_.version) == Vector(2L, 3L))
    assert(t.snapshotsSince(3).isEmpty)
  }

  test("snapshot helpers: totals and partitions") {
    val s = Snapshot(1, Snapshot.OpAppend,
      Vector(df("/a", Some("p2"), 10), df("/b", Some("p1"), 30), df("/c", None, 5)))
    assert(s.fileCount == 3)
    assert(s.totalBytes == 45L)
    assert(s.partitions == Vector("p1", "p2"))
    assert(s.filesIn(Some("p1")).map(_.path) == Vector("/b"))
    assert(s.filesIn(None).size == 3)
  }

  test("concurrent appends from many threads all land") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    val threads = (1 to 8).map { i =>
      new Thread(() => (1 to 10).foreach { j =>
        t.commit(t.currentVersion, Append(Vector(df(s"/f-$i-$j"))))
      })
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    assert(t.currentVersion == 80L)
    assert(t.currentSnapshot.fileCount == 80)
  }

  test("setSchemaIfAbsent writes once") {
    val t = LstTable.create(TableRef("d", "t"), freshTableDir(), None)
    t.setSchemaIfAbsent("s1")
    t.setSchemaIfAbsent("s2")
    assert(t.meta.schemaJson.contains("s1"))
  }
}
