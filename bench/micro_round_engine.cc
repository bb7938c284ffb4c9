/**
 * @file
 * Round-engine microbenchmarks: one synchronized DiBA round
 * (diffuse + local steps) under two engine configurations --
 *
 *   soa:       the quadratic struct-of-arrays kernel over the CSR
 *              overlay, serial (num_threads = 0);
 *   parallel:  soa + the static-chunked ThreadPool with one chunk
 *              per hardware thread.
 *
 * plus steady-state rounds (dense vs. active-set frontier), the
 * warm-start seed of a budget step, the seeded cold start, the
 * phases of bringing up one allocator, the survivor seed of a
 * recovery, and the primal-dual best-response sweep reusing the
 * same pool.
 * The serial/parallel DiBA rounds are bitwise-identical by
 * construction (see DESIGN.md "Round engine"), so these measure
 * the same computation.  Problems come from the shared cache so
 * harness re-entries never regenerate utilities inside setup.
 */

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <chrono>
#include <memory>

#include "alloc/diba.hh"
#include "alloc/primal_dual.hh"
#include "bench/common.hh"
#include "util/thread_pool.hh"

using namespace dpc;

namespace {

constexpr double kWattsPerNode = 172.0;
constexpr std::uint64_t kSeed = 23;

void
roundBench(benchmark::State &state, std::size_t threads)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto &quad = bench::cachedNpbProblem(n, kWattsPerNode,
                                               kSeed);
    DibaAllocator::Config cfg = bench::uniformStart();
    cfg.num_threads = threads;
    DibaAllocator diba(makeRing(n), cfg);
    diba.reset(quad);
    for (auto _ : state)
        benchmark::DoNotOptimize(diba.iterate());
    state.SetLabel(bench::problemLabel(n, kWattsPerNode, kSeed));
    state.counters["node_ns"] = benchmark::Counter(
        static_cast<double>(n),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
    state.SetComplexityN(state.range(0));
}

void
BM_RoundSoa(benchmark::State &state)
{
    roundBench(state, /*threads=*/0);
}

void
BM_RoundSoaParallel(benchmark::State &state)
{
    roundBench(state, ThreadPool::hardwareChunks());
}

/**
 * Steady-state round cost: the engine first converges, then the
 * timed region measures the per-round cost of holding the
 * converged allocation.  This is where the active-set engine earns
 * its keep -- the control loop spends most of its life converged,
 * re-running rounds only to track small drifts, and the dense
 * engine pays the full O(N + E) sweep for every one of them while
 * the sparse engine touches only the (empty or tiny) frontier.
 */
void
steadyBench(benchmark::State &state, double active_threshold)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto &prob = bench::cachedNpbProblem(n, kWattsPerNode,
                                               kSeed);
    DibaAllocator::Config cfg = bench::uniformStart();
    cfg.active_threshold = active_threshold;
    DibaAllocator diba(makeRing(n), cfg);
    Rng rng(1);
    diba.reset(prob);
    for (std::size_t r = 0; r < 200000 && !diba.converged(); ++r)
        diba.step(rng);
    // Residuals keep a long sub-tolerance tail after the stopping
    // rule fires; drain it so the timed region measures the truly
    // quiesced regime (empty frontier for the active engine).
    if (active_threshold >= 0.0) {
        for (std::size_t r = 0;
             r < 200000 && diba.frontierHotCount() > 0; ++r)
            diba.iterate();
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(diba.iterate());
    state.SetLabel(bench::problemLabel(n, kWattsPerNode, kSeed));
    state.counters["node_ns"] = benchmark::Counter(
        static_cast<double>(n),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
    state.SetComplexityN(state.range(0));
}

void
BM_RoundDenseSteady(benchmark::State &state)
{
    steadyBench(state, /*active_threshold=*/-1.0);
}

void
BM_RoundActiveSteady(benchmark::State &state)
{
    // Quiesced nodes leave the frontier once their residual falls
    // under a quarter of the convergence tolerance; at steady state
    // the frontier is empty and a round costs O(1).
    DibaAllocator::Config probe;
    steadyBench(state, 0.25 * probe.tolerance);
}

/**
 * Budget-step seeding: warmStart() from the live state re-seeds
 * every node at the new barrier equilibrium, the water-level search
 * starting at the previous level.  The timed region is one step,
 * alternating +-5%.
 */
void
BM_WarmStart(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto &prob = bench::cachedNpbProblem(n, kWattsPerNode,
                                               kSeed);
    DibaAllocator diba(makeRing(n), DibaAllocator::Config{});
    diba.reset(prob);
    AllocationResult prev = diba.result();
    const double step = 0.05 * prob.budget;
    diba.warmStart(prev, step);
    double sign = -1.0;
    for (auto _ : state) {
        state.PauseTiming();
        prev.power = diba.power();
        state.ResumeTiming();
        diba.warmStart(prev, sign * step);
        benchmark::ClobberMemory();
        sign = -sign;
    }
    state.SetLabel(bench::problemLabel(n, kWattsPerNode, kSeed));
}

/**
 * Cold-start seeding: reset() under the default config seeds the
 * barrier equilibrium with the sort-free water-level search (a few
 * O(n) passes).  The timed region is one reset(); seed_us is the
 * search plus the cap pass on their own (the allocator's seed
 * phase), uniform_us the same reset() with the seed off (the
 * paper's uniform start), and rounds counts the confirmation
 * rounds step() then needs to converge.
 */
void
BM_ColdSeed(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto &prob = bench::cachedNpbProblem(n, kWattsPerNode,
                                               kSeed);
    using Us = std::chrono::duration<double, std::micro>;
    DibaAllocator diba(makeRing(n), DibaAllocator::Config{});
    double seed_s = 0.0;
    for (auto _ : state) {
        diba.reset(prob);
        benchmark::ClobberMemory();
        seed_s += diba.setupPhases().seed_s;
    }
    const double iters = static_cast<double>(state.iterations());
    DibaAllocator uniform(makeRing(n), bench::uniformStart());
    const auto t1 = std::chrono::steady_clock::now();
    for (benchmark::IterationCount k = 0; k < state.iterations(); ++k) {
        uniform.reset(prob);
        benchmark::ClobberMemory();
    }
    const double uniform_us =
        Us(std::chrono::steady_clock::now() - t1).count() / iters;
    Rng rng(1);
    std::size_t rounds = 0;
    while (!diba.converged() && rounds < 100000) {
        diba.step(rng);
        ++rounds;
    }
    state.SetLabel(bench::problemLabel(n, kWattsPerNode, kSeed));
    state.counters["uniform_us"] = uniform_us;
    state.counters["seed_us"] = 1e6 * seed_s / iters;
    state.counters["rounds"] = static_cast<double>(rounds);
}

/** Minor page faults of this process so far. */
double
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_minflt);
}

/**
 * Bringing up one allocator as perfbench's dr-budget setup does:
 * the previous instance is destroyed off the clock, then the timed
 * region copies the overlay (a chordal ring with n/4 chords), runs
 * the constructor and a seeded reset().  One counter per phase
 * (mean us per setup): graph_copy_us, then the constructor's
 * slot_tables_us (canonical edge ids, the slot -> edge map and the
 * Metropolis weights, one pass) and connect_us (the connectivity
 * assert), ctor_other_us for the rest of the constructor, then
 * reset()'s mirror_us (the quadratic SoA mirror), seed_us (the
 * water-level search and the caps) and reset_other_us (the
 * problem copy and the remaining state, live-edge list included).
 * faults counts the minor page faults per setup.
 */
void
BM_AllocatorSetup(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto &prob = bench::cachedNpbProblem(n, kWattsPerNode,
                                               kSeed);
    Rng rng(kSeed);
    const Graph topo = makeChordalRing(n, n / 4, rng);
    const DibaAllocator::Config cfg{};
    using Clock = std::chrono::steady_clock;
    const auto secs = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };
    double copy_s = 0.0, ctor_s = 0.0, reset_s = 0.0, faults = 0.0;
    DibaAllocator::SetupPhases sum;
    std::unique_ptr<DibaAllocator> diba;
    for (auto _ : state) {
        state.PauseTiming();
        diba.reset();
        state.ResumeTiming();
        const double f0 = minorFaults();
        const auto t0 = Clock::now();
        Graph g = topo;
        const auto t1 = Clock::now();
        diba = std::make_unique<DibaAllocator>(std::move(g), cfg);
        const auto t2 = Clock::now();
        diba->reset(prob);
        const auto t3 = Clock::now();
        faults += minorFaults() - f0;
        copy_s += secs(t0, t1);
        ctor_s += secs(t1, t2);
        reset_s += secs(t2, t3);
        const DibaAllocator::SetupPhases &ph = diba->setupPhases();
        sum.slot_tables_s += ph.slot_tables_s;
        sum.connect_s += ph.connect_s;
        sum.mirror_s += ph.mirror_s;
        sum.seed_s += ph.seed_s;
    }
    const double us = 1e6 / static_cast<double>(state.iterations());
    state.SetLabel(bench::problemLabel(n, kWattsPerNode, kSeed));
    state.counters["graph_copy_us"] = us * copy_s;
    state.counters["slot_tables_us"] = us * sum.slot_tables_s;
    state.counters["connect_us"] = us * sum.connect_s;
    state.counters["ctor_other_us"] =
        us * (ctor_s - sum.slot_tables_s - sum.connect_s);
    state.counters["mirror_us"] = us * sum.mirror_s;
    state.counters["seed_us"] = us * sum.seed_s;
    state.counters["reset_other_us"] =
        us * (reset_s - sum.mirror_s - sum.seed_s);
    state.counters["setup_us"] = us * (copy_s + ctor_s + reset_s);
    state.counters["faults"] =
        faults / static_cast<double>(state.iterations());
}

/**
 * Recovery seeding: the survivors of a dead half re-federate their
 * budget, which seeds their component at the water level of its
 * share (the sort-free search over the component, a few O(m)
 * passes).  The timed region is one refederateBudget() on the
 * survivors; the round_us
 * counter is one dense round of the same survivors, and
 * seed_rounds the seed's cost in those rounds -- what it must stay
 * well under, since it replaces the ~50 rounds diffusion took to
 * re-settle.
 */
void
BM_RecoverySeed(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto &prob = bench::cachedNpbProblem(n, kWattsPerNode,
                                               kSeed);
    DibaAllocator diba(makeRing(n), DibaAllocator::Config{});
    diba.reset(prob);
    std::vector<std::size_t> dead;
    for (std::size_t i = n / 2; i < n; ++i)
        dead.push_back(i);
    diba.failNodesQuiet(dead);
    std::vector<std::uint32_t> label;
    const std::size_t k = diba.liveComponents(label);
    using Us = std::chrono::duration<double, std::micro>;
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        diba.refederateBudget(label, k);
        benchmark::ClobberMemory();
    }
    const double seed_us =
        Us(std::chrono::steady_clock::now() - t0).count() /
        static_cast<double>(state.iterations());
    constexpr int kRounds = 20;
    const auto t1 = std::chrono::steady_clock::now();
    for (int r = 0; r < kRounds; ++r)
        benchmark::DoNotOptimize(diba.iterate());
    const double round_us =
        Us(std::chrono::steady_clock::now() - t1).count() / kRounds;
    state.SetLabel(bench::problemLabel(n, kWattsPerNode, kSeed));
    state.counters["round_us"] = round_us;
    state.counters["seed_rounds"] = seed_us / round_us;
}

void
BM_PdSolve(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto &prob = bench::cachedNpbProblem(n, kWattsPerNode,
                                               kSeed);
    PrimalDualAllocator::Config cfg;
    cfg.num_threads = static_cast<std::size_t>(state.range(1));
    PrimalDualAllocator pd(cfg);
    for (auto _ : state) {
        auto res = pd.allocate(prob);
        benchmark::DoNotOptimize(res.utility);
    }
    state.SetLabel(bench::problemLabel(n, kWattsPerNode, kSeed));
}

} // namespace

BENCHMARK(BM_RoundSoa)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Arg(25600)
    ->Complexity();
BENCHMARK(BM_RoundSoaParallel)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Arg(25600)
    ->Complexity();
BENCHMARK(BM_RoundDenseSteady)->Arg(1600)->Arg(6400)->Arg(25600);
BENCHMARK(BM_RoundActiveSteady)->Arg(1600)->Arg(6400)->Arg(25600);
BENCHMARK(BM_WarmStart)->Arg(1600)->Arg(6400)->Arg(25600);
BENCHMARK(BM_ColdSeed)->Arg(6400)->Arg(25600);
BENCHMARK(BM_AllocatorSetup)->Arg(6400)->Arg(25600);
BENCHMARK(BM_RecoverySeed)->Arg(1024)->Arg(25600);
BENCHMARK(BM_PdSolve)
    ->Args({6400, 0})
    ->Args({6400, static_cast<long>(ThreadPool::hardwareChunks())});

BENCHMARK_MAIN();
