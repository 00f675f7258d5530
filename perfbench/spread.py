#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload small_sf0.1 --seeds 1-10

Each run is untraced and measures for BENCHMARK.json's run_seconds. The spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median: the figure an
end-to-end metric's bound in BENCHMARK.json is checked against. Every result
line is kept in perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = str(json.load(f)["run_seconds"])

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", "spread-%s.jsonl" % args.workload)
    results = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            print("seed %d: run failed with exit code %d" % (seed, proc.returncode))
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        with open(log, "a") as f:
            f.write(json.dumps(result) + "\n")
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    if len(results) < 2:
        return
    print("%-36s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "spread"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-36s %12.6g %12.6g %12.6g %8.3f" % (name, med, q1, q3, spread))


if __name__ == "__main__":
    main()
