#!/bin/sh
# Build the concurrency-sensitive tests under ThreadSanitizer and
# run the ones that exercise the round engine: the ThreadPool
# handoff protocol, the bitwise-determinism tests that spin the
# chunked DiBA engine with several thread counts, the batched
# gossip sweeps (vertex-disjoint matchings chunked across the
# pool), and the layout-invariance suite (threaded rounds under a
# permuted overlay).  A clean pass here is the evidence behind
# DESIGN.md's "every phase is snapshot-read / local-write"
# argument.
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

TSAN_OPTIONS=${TSAN_OPTIONS:-"halt_on_error=1"} \
    ctest --test-dir "$build" --output-on-failure -j2 \
          -R 'ThreadPoolTest|RoundEngineTest|GossipSweepTest|DibaLayoutTest'
