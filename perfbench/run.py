#!/usr/bin/env python3
"""AutoComp benchmark: build, run one measurement, print its result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cab|fleet --seed N --seconds S --trace 0|1

Builds the program and the benchmark from source with sbt (offline) when
the sources changed since the last build, then runs one measurement in a
fresh JVM. Build outputs, catalogs and records stay under the build
directory ($CARGO_TARGET_DIR, default .bench_build) in the checkout. The
last stdout line is the result record.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
RUN_TIMEOUT_S = 170

# JDK 17 module opens that Spark needs (the same list the root build passes).
JVM_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "--add-opens=java.security.jgss/sun.security.krb5=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandleAccessor=false",
]


# The child process group (sbt or the JVM) to stop if this script is stopped.
child = None


def stop_child(signum=None, frame=None):
    if child is not None and child.poll() is None:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    if signum is not None:
        sys.exit(128 + signum)


def spawn(cmd, **kw):
    global child
    child = subprocess.Popen(cmd, start_new_session=True, **kw)
    return child


def fail(msg, code=2):
    print(f"[perfbench] error: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    out = []
    for base in (PROGRAM_SRC, os.path.join(BENCH, "src")):
        for d, _, fs in os.walk(base):
            out += [os.path.join(d, f) for f in fs if f.endswith(".scala")]
    out += [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    return sorted(out)


def stamp():
    h = hashlib.sha256()
    for p in sources():
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build(out):
    """Compile with sbt when the sources changed; return the runtime classpath."""
    stamp_file = os.path.join(out, "stamp")
    cp_file = os.path.join(out, "classpath")
    want = stamp()
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f:
            if f.read() == want:
                with open(cp_file) as g:
                    return g.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    log = os.path.join(out, "build.log")
    t0 = time.time()
    with open(log, "w") as lf:
        p = spawn(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
                  cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=lf, text=True)
        try:
            stdout, _ = p.communicate(timeout=840)
        except subprocess.TimeoutExpired:
            stop_child()
            fail("build timed out")
        lf.write(stdout)
    if p.returncode != 0:
        sys.stderr.write(stdout[-4000:])
        fail(f"build failed (log: {os.path.relpath(log, ROOT)})")
    lines = [l for l in stdout.splitlines() if l and not l.startswith("[")]
    if not lines:
        fail("build printed no classpath")
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(want)
    print(f"[perfbench] built in {time.time() - t0:.0f} s", flush=True)
    return cp


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["cab", "fleet"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, stop_child)

    if not os.path.isdir(PROGRAM_SRC):
        fail("no program sources at src/main/scala: run from the root of a checkout")
    if shutil.which("sbt") is None or shutil.which("java") is None:
        fail("sbt and java must be on PATH")

    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(out, exist_ok=True)
    cp = build(out)

    work = os.path.join(out, "work", f"{a.workload}-{a.seed}-{a.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    cmd = ["java", "-Xms3g", "-Xmx3g", "-XX:+UseG1GC", f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
           *JVM_OPENS, "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--work", work]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))
    proc = spawn(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timed_out = []

    def kill():
        timed_out.append(True)
        os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    last = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("{"):
                last = line
            else:
                print(line, flush=True)
        code = proc.wait()
    finally:
        timer.cancel()
        stop_child()
    if timed_out:
        shutil.rmtree(work, ignore_errors=True)
        fail("run timed out", 3)
    records = os.path.join(out, "records")
    os.makedirs(records, exist_ok=True)
    for name in ("record.json", "spans.jsonl"):
        src = os.path.join(work, name)
        if os.path.exists(src):
            shutil.copy(src, os.path.join(records, f"{a.workload}-seed{a.seed}-trace{a.trace}-{name}"))
    shutil.rmtree(work, ignore_errors=True)
    if code != 0 or last is None:
        if last is not None:
            print(last, flush=True)
        fail(f"run exited with code {code}", code or 1)
    print(last, flush=True)


if __name__ == "__main__":
    main()
