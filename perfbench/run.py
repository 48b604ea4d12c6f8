#!/usr/bin/env python3
"""Benchmark entry point for the RL4QDTS reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0

Builds the benchmark (perfbench/build.sbt: the benchmark sources plus the
repository's src/main/scala) into .bench_build/ when its sources changed, runs
one workload in one JVM, and prints the result as the last line of stdout:

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

The detailed per-run record (every op, every check, the per-layer trace) is
written to .bench_build/runs/. `--make-policy` retrains the stored policy
fixture instead of running a workload (see perfbench/METRICS.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("dense", "train")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Spark on JDK 17 needs these module openings (Spark's own launcher adds the
# same list).
ADD_OPENS = [
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
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every input of the benchmark build, in a stable order."""
    lib = ROOT / "src" / "main" / "scala"
    if not lib.is_dir():
        fail(f"no library sources at {lib.relative_to(ROOT)}; run from a checkout root")
    files = [BENCH_DIR / "build.sbt", BENCH_DIR / "project" / "build.properties"]
    files += sorted((BENCH_DIR / "src").rglob("*.scala"))
    files += sorted(lib.rglob("*.scala"))
    return files


def build():
    """Compile with sbt unless the recorded source hash is current; returns
    the runtime classpath."""
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    digest = h.hexdigest()
    stamp = BUILD_DIR / "stamp"
    cp_file = BUILD_DIR / "classpath.txt"
    if stamp.is_file() and cp_file.is_file() and stamp.read_text() == digest:
        return cp_file.read_text().strip()
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    BUILD_DIR.mkdir(exist_ok=True)
    # resolve only from the local caches, as the repository's own build does
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.is_file():
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.offline=true "
                           f"-Dsbt.repository.config={repos} -Xmx2g")
    try:
        out = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
             "compile", "export Runtime/fullClasspath"],
            cwd=BENCH_DIR, env=env, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-6000:] + out.stderr[-3000:])
        fail("build failed")
    lines = [l for l in out.stdout.splitlines() if l and not l.startswith("[")]
    if not lines:
        fail("build printed no classpath")
    cp_file.write_text(lines[-1])
    stamp.write_text(digest)
    return lines[-1]


def java_cmd(cp, trace, main, args):
    cmd = ["java", "-Xmx3g", "-Xms3g", "-XX:+UseParallelGC",
           "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
           "-Dlog4j2.level=warn"] + ADD_OPENS
    if trace:
        cmd.append("-XX:FlightRecorderOptions:stackdepth=256")
    return cmd + ["-cp", cp, main] + args


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-policy", action="store_true",
                    help="retrain and rewrite the stored policy fixture")
    a = ap.parse_args()
    if not a.make_policy and a.workload is None:
        ap.error("--workload is required")

    cp = build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("BENCH_")}
    runs = BUILD_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    policy = BENCH_DIR / "policy" / "bench_policy.json"
    if a.make_policy:
        cmd = java_cmd(cp, False, "perfbench.MakePolicy", [str(policy)])
        sys.exit(subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL).returncode)

    detail = runs / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--policy", str(policy), "--detail", str(detail),
            "--jfr-dir", str(runs), "--spec", str(ROOT / "BENCHMARK.json")]
    proc = subprocess.Popen(java_cmd(cp, a.trace, "perfbench.Main", args), env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"workload {a.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out[-4000:])
        fail(f"workload {a.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
