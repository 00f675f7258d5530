#!/usr/bin/env python3
"""Run one benchmark workload of the cuisine-clustering reproduction.

    python3 perfbench/run.py --workload small_sf0.1 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call builds the program under test
together with the harness from source (sbt, offline) and caches the result
under perfbench/target; later calls reuse it while no source file changed.
Each run then starts one JVM that sets the workload up, reproduces the paper
in a closed loop for --seconds, checks every output and prints one JSON line,
which this script repeats as the last line of its standard output.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH_FILE = os.path.join(TARGET, "runtime-classpath.txt")
STAMP_FILE = os.path.join(TARGET, "source-stamp.txt")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")

# The program's sources, compiled into the harness by perfbench/build.sbt.
PROGRAM_SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(ROOT, "jobs")]
HARNESS_SOURCES = [
    os.path.join(HERE, "src"),
    os.path.join(HERE, "build.sbt"),
    os.path.join(HERE, "project", "build.properties"),
]

DRIVER_HEAP = "4g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# The module options spark-submit passes to a Spark 4 driver JVM.
JAVA_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
)] + [
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def log(msg):
    print("[run.py] " + msg, file=sys.stderr, flush=True)


def source_stamp():
    """Hash of every file the build reads from this checkout."""
    h = hashlib.sha256()
    for top in PROGRAM_SOURCES + HARNESS_SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def run_child(cmd, cwd, env, timeout):
    """Runs cmd in its own process group; kills the group on timeout and
    waits for it, so no process outlives this script."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    stamp = source_stamp()
    if os.path.exists(CLASSPATH_FILE) and os.path.exists(STAMP_FILE):
        with open(STAMP_FILE) as f:
            if f.read() == stamp:
                return
    log("building the program and harness with sbt")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if not env.get("SBT_OPTS"):
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
        env["SBT_OPTS"] = " ".join(opts)
    t0 = time.time()
    # sbt's own state (global base, compiler-bridge cache) stays in target/.
    code, out = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true",
                           "-Dsbt.server.autostart=false",
                           "-Dsbt.global.base=" + os.path.join(TARGET, "sbt-global"),
                           "writeClasspath"],
                          HERE, env, BUILD_TIMEOUT_S)
    sys.stderr.write(out)
    if code != 0 or not os.path.exists(CLASSPATH_FILE):
        raise SystemExit("build failed (sbt exit code %d)" % code)
    with open(STAMP_FILE, "w") as f:
        f.write(stamp)
    log("built in %.1f s" % (time.time() - t0))


def main():
    # A SIGTERM raises SystemExit, so run_child kills and reaps its children.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    missing = [p for p in PROGRAM_SOURCES if not os.path.isdir(p)]
    if missing:
        raise SystemExit("program sources not found: " + ", ".join(
            os.path.relpath(p, ROOT) for p in missing))
    if not os.environ.get("SPARK_HOME"):
        raise SystemExit("SPARK_HOME is not set")
    build()
    with open(CLASSPATH_FILE) as f:
        classpath = f.read().strip()

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "tmp"))
    cmd = ["java", "-Xms" + DRIVER_HEAP, "-Xmx" + DRIVER_HEAP] + JAVA_MODULE_OPTIONS + [
        "-Dspark.driver.host=127.0.0.1",
        "-Dspark.ui.enabled=false",
        "-Dspark.local.dir=" + os.path.join(WORK, "spark-local"),
        "-Djava.io.tmpdir=" + os.path.join(WORK, "tmp"),
        "-cp", classpath, "repro.perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace,
        "--out", OUT,
    ]
    log("driver heap %s" % DRIVER_HEAP)
    try:
        code, out = run_child(cmd, ROOT, dict(os.environ), RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    lines = out.strip().splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if code != 0 or not lines:
        raise SystemExit("benchmark JVM failed (exit code %d)" % code)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit("malformed result line: " + lines[-1])
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
