#!/bin/sh
# Build the concurrency-sensitive tests under ThreadSanitizer and
# run the ones that exercise the round engine: the ThreadPool
# handoff protocol and the bitwise-determinism tests that spin the
# chunked DiBA engine with several thread counts (dense and sparse
# frontier rounds, a warm-start seed, churn and lossy transport
# rounds).  A clean pass here is the evidence behind DESIGN.md's
# "every phase is snapshot-read / local-write" argument.
#
# Usage: tools/run_ctest_tsan.sh [build-dir]   (default: build-tsan)
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build-tsan"}

cmake -S "$repo" -B "$build" -DDPC_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      ${DPC_CMAKE_ARGS:-}
cmake --build "$build" --target test_util test_alloc \
      -j"$(nproc)"

# Every pattern must still select a test: a suite that was renamed
# or deleted would otherwise drop out of the TSan run silently.
patterns="ThreadPoolTest RoundEngineTest"
for pat in $patterns; do
    count=$(ctest --test-dir "$build" -N -R "$pat" |
                sed -n 's/^Total Tests: //p')
    if [ "${count:-0}" -eq 0 ]; then
        echo "run_ctest_tsan: pattern '$pat' selects no test" >&2
        exit 1
    fi
done

TSAN_OPTIONS=${TSAN_OPTIONS:-"halt_on_error=1"} \
    ctest --test-dir "$build" --output-on-failure -j2 \
          -R "$(echo "$patterns" | tr ' ' '|')"
