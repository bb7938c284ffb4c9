#!/bin/sh
# Full local CI: everything a reviewer would want green before
# merging, in the order that fails fastest.
#
#   1. scalar Release build + full ctest        (correctness)
#      + fate-sequence pin: the seeded fault_storm and
#        recovery_storm benches must regenerate the committed
#        BENCH_fault_storm.json / BENCH_recovery.json byte for
#        byte (any drift means a seeded draw sequence moved)
#      + time-to-cap benchmark smoke: perfbench/run.py --smoke
#        builds perfbench/ into .bench_build/ and runs every
#        workload at tiny sizes, traced and untraced, failing
#        unless each prints every BENCHMARK.json metric and
#        passes its cap/invariant/parity checks
#   2. AVX2 build + full ctest                  (bitwise SIMD parity)
#      + loopback-vs-socket parity smoke: wire_shard forks 2
#        shard processes over 127.0.0.1 (UDP and TCP, zero loss)
#        and exits non-zero unless every reassembled result is
#        bitwise equal to the single-process transport round.
#        Its dense rows run at active_threshold 0 (the sharded
#        parity pin for the threshold-0 path) and its steady
#        section converges, holds, and budget-steps a 2-shard run,
#        failing unless the quiesced rounds stay under the
#        suppressed-frame byte ceiling and every steady row is
#        bitwise equal to the sparse single-process reference
#      + shard-death recovery smoke: wire_recovery SIGKILLs (and
#        SIGSTOPs) forked shards mid-run under UDP and TCP and
#        demands detection within deadline, partition-aware
#        re-federation, and bitwise survivor parity
#      + AVX-512 compile smoke: the -DDPC_AVX512 configuration
#        builds and its parity suite runs (the suite self-skips on
#        hosts without AVX-512F, so this is always safe; on capable
#        hosts it is the full 8-wide bitwise pin)
#   3. ASan suite                               (memory safety)
#   4. UBSan suite                              (UB: shifts, casts,
#                                                signed overflow)
#   5. TSan round-engine suite                  (determinism under
#                                                real threads)
#   6. bench suite + bench_compare gate         (perf + quality
#                                                baselines)
#
# Usage: tools/ci.sh             # run everything
#        DPC_CI_SKIP_BENCH=1 ... # skip the bench gate (slow)
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)

step() {
    printf '\n== ci: %s ==\n' "$1"
}

step "scalar build + full test suite"
cmake -S "$repo" -B "$repo/build" -DCMAKE_BUILD_TYPE=Release
cmake --build "$repo/build" -j"$(nproc)"
ctest --test-dir "$repo/build" --output-on-failure -j"$(nproc)"

step "fate-sequence pin (fault_storm + recovery_storm)"
pin_dir=$(mktemp -d)
(cd "$pin_dir" &&
     "$repo/build/bench/fault_storm" >/dev/null 2>&1 &&
     "$repo/build/bench/recovery_storm" >/dev/null 2>&1)
for json in BENCH_fault_storm.json BENCH_recovery.json; do
    if ! cmp -s "$pin_dir/$json" "$repo/$json"; then
        echo "ci: $json drifted from the committed file" >&2
        exit 1
    fi
done
rm -rf "$pin_dir"

step "time-to-cap benchmark smoke (perfbench, all workloads)"
(cd "$repo" && python3 perfbench/run.py --smoke)

step "AVX2 build + full test suite"
cmake -S "$repo" -B "$repo/build-avx2" -DCMAKE_BUILD_TYPE=Release \
      -DDPC_AVX2=ON
cmake --build "$repo/build-avx2" -j"$(nproc)"
ctest --test-dir "$repo/build-avx2" --output-on-failure -j"$(nproc)"

step "loopback-vs-socket + steady-state smoke (2 shards)"
wire_smoke_dir=$(mktemp -d)
(cd "$wire_smoke_dir" &&
     DPC_BENCH_SMOKE=1 "$repo/build-avx2/bench/wire_shard")
rm -rf "$wire_smoke_dir"

step "shard-death recovery smoke (SIGKILL mid-run, UDP + TCP)"
# wire_recovery SIGKILLs a forked shard mid-run under both protos
# (plus a SIGSTOP-past-deadline hang) and exits non-zero unless
# every recovery detects within the deadline, re-federates, and
# leaves the survivors bitwise-equal to the single-process surgery
# reference with the safety invariants audited every round.
recovery_smoke_dir=$(mktemp -d)
(cd "$recovery_smoke_dir" &&
     DPC_BENCH_SMOKE=1 "$repo/build-avx2/bench/wire_recovery")
rm -rf "$recovery_smoke_dir"

step "AVX-512 compile smoke + parity suite"
cmake -S "$repo" -B "$repo/build-avx512" \
      -DCMAKE_BUILD_TYPE=Release -DDPC_AVX512=ON
cmake --build "$repo/build-avx512" -j"$(nproc)" \
      --target dpc_alloc test_round_kernel_avx512
ctest --test-dir "$repo/build-avx512" --output-on-failure \
      -R 'RoundKernelAvx512'

step "AddressSanitizer suite"
"$repo/tools/run_ctest_asan.sh"

step "UndefinedBehaviorSanitizer suite"
"$repo/tools/run_ctest_ubsan.sh"

step "ThreadSanitizer round-engine suite"
"$repo/tools/run_ctest_tsan.sh"

if [ "${DPC_CI_SKIP_BENCH:-0}" != "1" ]; then
    step "bench suite + baseline gate"
    # The AVX2 build is the perf-tracking configuration (its
    # kernels are pinned bitwise-identical to the portable build,
    # so only speed differs); the committed baselines are recorded
    # from it.
    BUILD_DIR="$repo/build-avx2" "$repo/tools/run_bench_suite.sh"
fi

step "all green"
