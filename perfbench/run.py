#!/usr/bin/env python3
"""Build and run the time-to-cap benchmark.

    python3 perfbench/run.py --workload dr-budget --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The first run configures and
builds perfbench/ (the dpc library sources plus the benchmark
program) into .bench_build/; later runs only re-check the build.
Build output goes to stderr.  The benchmark's own output goes to
stdout, and its last line is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  With --trace 1 the
span trace is written to .bench_build/traces/.

--smoke runs every workload (tracked or not) at tiny sizes, traced
and untraced, and checks that each prints every metric named in
BENCHMARK.json with its unit and that every correctness check
passes.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "ttc_bench"
RUN_TIMEOUT_S = 170
# Every workload the benchmark program knows; BENCHMARK.json lists
# the ones whose metrics are tracked run to run.
WORKLOADS = ("dr-budget", "job-churn", "shard2-udp", "shard-kill")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; False when the build fails."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: no dpc sources at", ROOT / "src")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def expected_metrics(trace):
    """{name: unit} the given mode must print."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec()[key]}


def run_binary(args, capture):
    """Run the benchmark binary in its own process group, so a
    timeout also stops the shard processes it forked."""
    proc = subprocess.Popen([str(BINARY)] + args,
                            stdout=subprocess.PIPE if capture else None,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("run.py: benchmark exceeded", RUN_TIMEOUT_S, "s")
        return 1, ""
    return proc.returncode, out or ""


def check_result(line, trace):
    """Problems with one result line (empty list when it is valid)."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("unexpected keys %s" % sorted(res))
        return problems
    if res["correct"] is not True or res["failed"] != 0:
        problems.append("correctness checks failed (%s of %s)" %
                        (res["failed"], res["attempted"]))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted must be a positive integer")
    want = expected_metrics(trace)
    got = res["metrics"]
    if sorted(got) != sorted(want):
        problems.append("metrics differ from BENCHMARK.json: missing %s,"
                        " extra %s" % (sorted(set(want) - set(got)),
                                       sorted(set(got) - set(want))))
    for name, m in got.items():
        if m.get("unit") != want.get(name):
            problems.append("%s: unit %r, expected %r" %
                            (name, m.get("unit"), want.get(name)))
        if not isinstance(m.get("value"), (int, float)):
            problems.append("%s: value is not a number" % name)
    return problems


def smoke():
    failures = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", w, "--seed", "1", "--seconds",
                    "1", "--trace", str(trace), "--smoke"]
            rc, out = run_binary(args, capture=True)
            lines = out.strip().splitlines()
            problems = [] if rc == 0 else ["exit code %d" % rc]
            problems += check_result(lines[-1] if lines else "", trace)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-11s trace=%d %s" % (w, trace, status))
            failures += bool(problems)
    print("smoke: %s" % ("all workloads passed" if failures == 0
                         else "%d failure(s)" % failures))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()

    if not build():
        log("run.py: build failed")
        return 1
    if a.smoke:
        return smoke()
    if not a.workload:
        ap.error("--workload is required")

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        args += ["--trace-out",
                 str(traces / ("%s-seed%d.json" % (a.workload, a.seed)))]
    rc, out = run_binary(args, capture=True)
    lines = out.rstrip("\n").splitlines()
    for line in lines:
        print(line, flush=True)
    problems = check_result(lines[-1], a.trace) if lines else ["no output"]
    if rc != 0:
        problems.append("benchmark exited with code %d" % rc)
    for p in problems:
        log("run.py:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
