#!/usr/bin/env python3
"""Build and run the Louvain benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run compiles the repository's
library sources together with the harness in perfbench/src (sbt, offline)
and caches the class path under perfbench/target; later runs start the JVM
directly. The last line of standard output is the JSON result.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIB_SOURCES = ROOT / "src" / "main" / "scala"
BUILD_DIR = HERE / "target"
WORKLOADS = ("rmat15-cc", "orkut-mod", "rmat15-seq")
HEAP = ["-Xms2g", "-Xmx2g"]
# The module opens Spark needs on JDK 17 (the root build passes the same).
OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-1 over every file the build compiles, so an edit forces a rebuild."""
    files = sorted(p for d in (LIB_SOURCES, HERE / "src" / "main") for p in d.rglob("*.scala"))
    files += [HERE / "build.sbt", HERE / "project" / "build.properties"]
    h = hashlib.sha1()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(cmd, timeout, group=False, **kw):
    """Run cmd and wait for it; on timeout kill it, or its whole process group
    when `group` (sbt is a script that starts its own JVM). Returns (exit code,
    captured stdout or None); the exit code is -1 on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=group, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        if group:
            os.killpg(proc.pid, signal.SIGKILL)
        else:
            proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return -1, None


def classpath(digest):
    """Compile if the sources changed since the cached build; return the class path."""
    stamp = BUILD_DIR / "perfbench.classpath"
    if stamp.is_file():
        cached_digest, _, cp = stamp.read_text().partition("\n")
        if cached_digest == digest and cp.strip():
            return cp.strip()
    env = dict(os.environ, COURSIER_MODE="offline")
    repos = Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.is_file():
        env["SBT_OPTS"] = (f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} "
                           "-Dsbt.offline=true -Xmx2g")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    code, stdout = run(cmd, BUILD_TIMEOUT_S, group=True, cwd=HERE, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = (stdout or "").strip().splitlines()
    sys.stderr.write("\n".join(lines[-40:-1]) + "\n")
    if code != 0 or not lines:
        fail(f"build failed (exit {code})", 3)
    cp = lines[-1]
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    stamp.write_text(digest + "\n" + cp + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    if not LIB_SOURCES.is_dir():
        fail(f"no library sources at {LIB_SOURCES.relative_to(ROOT)}; run from a full checkout", 2)
    digest = source_digest()
    cp = classpath(digest)

    scratch = BUILD_DIR / "run"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java), *HEAP, "-XX:+UseG1GC", "-XX:+AlwaysPreTouch", "-XX:-UsePerfData", *OPENS,
           f"-Djava.io.tmpdir={scratch / 'tmp'}",
           f"-Dspark.local.dir={scratch / 'spark'}",
           f"-Dspark.sql.warehouse.dir={scratch / 'warehouse'}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace]
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(), PERFBENCH_SOURCE_SHA=digest)
    code, _ = run(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    if code != 0:
        fail(f"benchmark JVM exited with {code}", code if code > 0 else 4)


if __name__ == "__main__":
    main()
