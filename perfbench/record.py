#!/usr/bin/env python3
"""Record one entry of the perf trajectory.

Run from the repository root:

    python3 perfbench/record.py --label <commit>

Runs two sets of untraced runs, each every workload once per seed (seeds
1-10), then every workload traced once (seed 1), through perfbench/run.py,
and writes perfbench/records/BENCH_<label>.json: per set, workload and
end-to-end metric the median, quartiles and spread (IQR / median, as
statistics.quantiles(n=4) gives them) against the metric's bound in
BENCHMARK.json; how far the second set's medians are worse than the first's;
the traced per-layer metrics; and each run's result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEEDS = range(1, 11)
SETS = 2


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.time() - t0
    if out.returncode != 0:
        return {"seed": seed, "exit": out.returncode, "wall_s": wall}
    return {"seed": seed, "wall_s": wall, "result": json.loads(out.stdout.strip().splitlines()[-1])}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summarise(runs, spec):
    out = {}
    for m in spec["end_to_end"]:
        xs = [r["result"]["metrics"][m["name"]]["value"] for r in runs if "result" in r]
        if len(xs) < 2:
            continue
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        spread = (q3 - q1) / med
        out[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": m["bound"],
                          "spread_within_bound": spread <= m["bound"],
                          "spread_below_third_of_bound": spread < m["bound"] / 3}
    return out


def agreement(first, second, spec):
    """How much worse the second set's median is than the first's, as a share
    of the first (negative: better), against the metric's bound."""
    out = {}
    for m in spec["end_to_end"]:
        a, b = first.get(m["name"]), second.get(m["name"])
        if a is None or b is None:
            continue
        worse = (b["median"] - a["median"]) / a["median"]
        if m["better"] == "higher":
            worse = -worse
        out[m["name"]] = {"second_worse_by": worse, "bound": m["bound"],
                          "within_bound": worse <= m["bound"]}
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    a = ap.parse_args()
    seconds = spec["run_seconds"]
    workloads = [x["name"] for x in spec["workloads"]]

    record = {"label": a.label, "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "machine": {"cpus": os.cpu_count(), "cpu": cpu_model(),
                          "python": platform.python_version()},
              "seconds": seconds, "sets": [], "agreement": {}, "traced": {}}
    for n in range(SETS):
        one = {}
        for w in workloads:
            runs = [run(w, s, seconds, 0) for s in SEEDS]
            ok = all("result" in r and r["result"]["correct"] and r["result"]["failed"] == 0
                     for r in runs)
            one[w] = {"all_correct": ok, "end_to_end": summarise(runs, spec), "runs": runs}
            print(f"set {n + 1}", w, "correct" if ok else "NOT CORRECT",
                  {k: (round(v["median"], 4), round(v["spread"], 4))
                   for k, v in one[w]["end_to_end"].items()}, file=sys.stderr)
        record["sets"].append(one)
    for w in workloads:
        record["agreement"][w] = agreement(record["sets"][0][w]["end_to_end"],
                                           record["sets"][-1][w]["end_to_end"], spec)
        traced = run(w, SEEDS[0], seconds, 1)
        record["traced"][w] = {
            "correct": "result" in traced and traced["result"]["correct"]
            and traced["result"]["failed"] == 0,
            "per_layer": traced.get("result", {}).get("metrics"), "run": traced}
    dest = BENCH_DIR / "records" / f"BENCH_{a.label}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(record, indent=1) + "\n")
    print(dest)


if __name__ == "__main__":
    main()
