/**
 * @file
 * Shared helpers for the reproduction benches: problem builders,
 * convergence counting against the KKT oracle, and banner output.
 */

#ifndef DPC_BENCH_COMMON_HH
#define DPC_BENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <limits>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <tuple>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "alloc/diba.hh"
#include "alloc/kkt.hh"
#include "alloc/primal_dual.hh"
#include "alloc/problem.hh"
#include "alloc/uniform.hh"
#include "graph/topologies.hh"
#include "metrics/performance.hh"
#include "tools/bench_json.hh"
#include "util/table.hh"
#include "workload/generator.hh"

namespace dpc {
namespace bench {

/** Print a figure/table banner. */
inline void
banner(const std::string &title, const std::string &what)
{
    std::cout << "\n=== " << title << " ===\n" << what << "\n\n";
}

/** Random NPB cluster problem at `wpn` Watts per node. */
inline AllocationProblem
npbProblem(std::size_t n, double wpn, std::uint64_t seed)
{
    return AllocationProblem::Builder()
        .npbCluster(n, seed)
        .budgetPerNode(wpn)
        .build();
}

/**
 * Cached variant of npbProblem for google-benchmark bodies: the
 * harness re-enters a benchmark function many times while tuning
 * the iteration count, and regenerating thousands of utilities in
 * every entry pollutes the untimed setup (and the CPU caches) the
 * timed region then runs under.  The cache key doubles as the
 * seed label, keeping micro benches comparable across runs.
 */
inline const AllocationProblem &
cachedNpbProblem(std::size_t n, double wpn, std::uint64_t seed)
{
    using Key = std::tuple<std::size_t, double, std::uint64_t>;
    static std::map<Key, AllocationProblem> cache;
    const Key key{n, wpn, seed};
    auto it = cache.find(key);
    if (it == cache.end())
        it = cache.emplace(key, npbProblem(n, wpn, seed)).first;
    return it->second;
}

/** Uniform problem label for benchmark counters/reports, so runs
 * with different generator seeds are never compared by accident. */
inline std::string
problemLabel(std::size_t n, double wpn, std::uint64_t seed)
{
    return "npb n=" + std::to_string(n) +
           " wpn=" + std::to_string(static_cast<long long>(wpn)) +
           " seed=" + std::to_string(seed);
}

/**
 * DiBA with the paper's uniform cold start (seed_cold_start off):
 * the configuration of every bench that reproduces the paper's
 * gossip convergence (Figs. 4.3 and 4.10, Table 4.2, the ablation),
 * of the fault storm (gossip under loss) and of the round-engine
 * rows of BENCH_diba_rounds.json.
 */
inline DibaAllocator::Config
uniformStart(DibaAllocator::Config cfg = {})
{
    cfg.seed_cold_start = false;
    return cfg;
}

/**
 * Run DiBA until it reaches `fraction` of the oracle utility;
 * returns the iteration count (or max_iters if never reached).
 */
inline std::size_t
dibaIterationsToFraction(DibaAllocator &diba,
                         const AllocationProblem &prob,
                         double optimal_utility, double fraction,
                         std::size_t max_iters = 60000)
{
    diba.reset(prob);
    for (std::size_t it = 1; it <= max_iters; ++it) {
        diba.iterate();
        const double u =
            totalUtility(prob.utilities, diba.power());
        if (withinFractionOfOptimal(u, optimal_utility, fraction))
            return it;
    }
    return max_iters;
}

/** Iterations for the primal-dual scheme to reach the fraction. */
inline std::size_t
pdIterationsToFraction(const AllocationProblem &prob,
                       double optimal_utility, double fraction)
{
    PrimalDualAllocator pd;
    pd.allocate(prob);
    const auto &trace = pd.utilityTrace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (withinFractionOfOptimal(trace[i], optimal_utility,
                                    fraction))
            return i + 1;
    }
    return trace.size();
}

/**
 * Wall-clock timing of a batch of synchronized rounds, in the two
 * normalizations every perf record uses: ms per round and ns per
 * node-round (the flat-with-N quantity Table 4.2 tracks).
 */
struct RoundTiming
{
    double ms_per_round = 0.0;
    double ns_per_node = 0.0;
    std::size_t rounds = 0;
};

/**
 * Time `rounds` calls of `step` over an n-node engine, best of
 * `trials` batches.  The minimum is the right estimator for a
 * deterministic hot loop: every source of error (scheduler
 * preemption, frequency dips, cache pollution from neighbors) only
 * ever adds time, so the fastest batch is the closest observation
 * of the true cost — and it is what keeps run-to-run jitter inside
 * the regression gate's threshold (tools/bench_compare.py).
 */
template <typename Step>
inline RoundTiming
timeRounds(std::size_t n, std::size_t rounds, Step &&step,
           std::size_t trials = 9)
{
    double best_ms = std::numeric_limits<double>::infinity();
    for (std::size_t trial = 0; trial < trials; ++trial) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < rounds; ++r)
            step();
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count() /
            static_cast<double>(rounds);
        best_ms = std::min(best_ms, ms);
    }
    RoundTiming t;
    t.ms_per_round = best_ms;
    t.ns_per_node = 1e6 * best_ms / static_cast<double>(n);
    t.rounds = rounds * trials;
    return t;
}

/** Peak resident set of this process in MiB (0 if unavailable). */
inline double
peakRssMb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
        return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
        return static_cast<double>(ru.ru_maxrss) / 1024.0;
#endif
    }
#endif
    return 0.0;
}

/** Standard perf fields every timing record carries, so the JSON
 * trajectories stay comparable across benches and sessions. */
inline tools::JsonRecord &
addTimingFields(tools::JsonRecord &rec, const RoundTiming &t)
{
    return rec.field("rounds", t.rounds)
        .field("ms_per_round", t.ms_per_round)
        .field("ns_per_node", t.ns_per_node)
        .field("peak_rss_mb", peakRssMb());
}

/** SNP of an allocation under the problem's utilities. */
inline double
snpOf(const AllocationProblem &prob, const std::vector<double> &p)
{
    return snpArithmetic(anpVector(prob.utilities, p));
}

} // namespace bench
} // namespace dpc

#endif // DPC_BENCH_COMMON_HH
