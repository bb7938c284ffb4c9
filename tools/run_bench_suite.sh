#!/usr/bin/env bash
# Build and run the JSON-emitting benchmark suite, gate the numbers
# against the committed baselines, and (optionally) refresh them.
#
#   tools/run_bench_suite.sh            # run + compare, exit 1 on
#                                       # >10% per-node-round
#                                       # regression or quality drop
#   BENCH_UPDATE=1 tools/run_bench_suite.sh
#                                       # run + compare + install the
#                                       # fresh JSONs as the new
#                                       # committed baselines
#   BUILD_DIR=... THRESHOLD=0.25 ...    # overrides
#
# The gated artifacts live at the repo root:
#   BENCH_diba_rounds.json   (table4_2_scalability: round-engine
#                             timings, warm-start reconvergence)
#   BENCH_fault_storm.json   (fault_storm: allocation quality under
#                             loss and churn)
#   BENCH_recovery.json      (recovery_storm: detector-driven
#                             self-healing -- availability,
#                             time-to-recover, quality vs oracle)
#   BENCH_wire.json          (wire_shard: forked shard processes
#                             over 127.0.0.1 sockets -- cut-edge
#                             bytes/round gated at 0.1% growth,
#                             rounds_per_sec at the perf threshold,
#                             bitwise parity enforced by the bench
#                             itself)
#   BENCH_wire_recovery.json (wire_recovery: SIGKILL/SIGSTOP a
#                             forked shard mid-run -- detection
#                             latency, rollback depth, recovery
#                             time and availability under absolute
#                             bars; survivors bitwise-checked and
#                             invariant-audited by the bench)
# micro_round_engine (google-benchmark) also runs for the human log
# but is not part of the gate -- its numbers duplicate the
# table4_2 records in a harness with its own timing loop.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
THRESHOLD="${THRESHOLD:-0.15}"

if [ ! -d "$BUILD_DIR" ]; then
    cmake -S "$ROOT" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" -j \
    --target table4_2_scalability fault_storm recovery_storm \
    wire_shard wire_recovery micro_round_engine

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "== table4_2_scalability =="
(cd "$workdir" && "$BUILD_DIR/bench/table4_2_scalability")
echo
echo "== fault_storm =="
(cd "$workdir" && "$BUILD_DIR/bench/fault_storm")
echo
echo "== recovery_storm =="
(cd "$workdir" && "$BUILD_DIR/bench/recovery_storm")
echo
echo "== wire_shard =="
(cd "$workdir" && "$BUILD_DIR/bench/wire_shard")
echo
echo "== wire_recovery =="
(cd "$workdir" && "$BUILD_DIR/bench/wire_recovery")
echo
echo "== micro_round_engine (informational) =="
"$BUILD_DIR/bench/micro_round_engine" --benchmark_min_time=0.2 ||
    echo "micro_round_engine failed (non-gating)"

status=0
for name in BENCH_diba_rounds.json BENCH_fault_storm.json \
            BENCH_recovery.json BENCH_wire.json \
            BENCH_wire_recovery.json; do
    if [ -f "$ROOT/$name" ]; then
        echo
        echo "== compare $name =="
        python3 "$ROOT/tools/bench_compare.py" \
            --threshold "$THRESHOLD" \
            "$ROOT/$name" "$workdir/$name" || status=1
    else
        echo "no committed baseline $name (first run?)"
    fi
    if [ "${BENCH_UPDATE:-0}" = "1" ]; then
        cp "$workdir/$name" "$ROOT/$name"
        echo "installed $name as the new baseline"
    fi
done

exit "$status"
