#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload job-churn --seeds 1-10

Runs perfbench/run.py once per seed (untraced, BENCHMARK.json's
run_seconds) and prints, per metric, the median and the distance
between the first and third quartile as a share of the median,
next to the metric's bound.  A steady benchmark keeps every spread
but setup_s well under its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    a = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in a.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", a.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print("seed %d failed:\n%s" % (seed, out.stderr[-2000:]))
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in res["metrics"].items():
            values[name].append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items())),
            flush=True)

    print("\n%-22s %14s %8s %7s" % ("metric", "median", "spread", "bound"))
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        print("%-22s %14.6g %8.4f %7.3f" % (m["name"], med, spread,
                                             m["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
