/**
 * @file
 * Time-to-cap benchmark: how long after a budget, workload or
 * failure event every server holds a cap near the new optimum.
 *
 * One workload per invocation (see perfbench/README.md for why each
 * exists and which layer metric should move which end-to-end
 * metric):
 *
 *   dr-budget   single process, 4 x n=6400: warm budget steps
 *   job-churn   single process, 8 x n=1600: job swaps on 1-4 servers
 *   shard2-udp  2 forked shards over UDP, 4 x n=4096: warm budget
 *               steps spread through one long run per cluster
 *   shard-kill  2 shards over UDP, 6 x n=1024: one shard SIGKILLed
 *               while capped, survivors recover
 *
 * Every workload is a closed loop with one caller: the next event
 * is issued only after the caps from the last one settled.  Inputs
 * (topology, utilities, job pool, event schedule) derive from
 * --seed alone; the library sees only the generated inputs.  Every
 * output is checked off the clock (box bounds, sum p < P, sum e ==
 * sum p - P, utility against the KKT oracle, bitwise parity of the
 * sharded runs); a violation fails the event and the run.
 *
 * --trace 0 prints the end-to-end metrics of an untraced run.
 * --trace 1 runs the same workload untraced and then traced (spans
 * around every call into a layer, kept in memory, written as
 * Chrome trace JSON at exit) and prints the per-layer metrics plus
 * the tracing overhead.  The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "alloc/diba.hh"
#include "alloc/kkt.hh"
#include "alloc/problem.hh"
#include "cluster/shard.hh"
#include "fault/shard_fault.hh"
#include "graph/topologies.hh"
#include "metrics/performance.hh"
#include "net/transport.hh"
#include "util/rng.hh"
#include "workload/benchmarks.hh"

#include "trace.hh"

using namespace dpc;
using ttc::Layer;
using ttc::Scope;
using ttc::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kWattsPerNode = 172.0;
/** An event needing more rounds than this has not capped. */
constexpr std::size_t kMaxRoundsPerEvent = 20000;
/** A checked allocation below this share of the KKT optimum
 * utility fails its event. */
constexpr double kQualityFloor = 0.99;
/** KKT-oracle check on every k-th event (plus the last). */
constexpr std::size_t kKktEvery = 25;
/** A single-process run never exceeds this many wall seconds in
 * its event loop, whatever --seconds says. */
constexpr double kHardCapS = 120.0;
/** Cluster instances pooled per run where an instance is cheap:
 * the cold-solve length varies by 10-20% between instances. */
constexpr std::size_t kBudgetInstances = 4;
constexpr std::size_t kChurnInstances = 8;
constexpr std::size_t kStepInstances = 4;
constexpr std::size_t kKillInstances = 6;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
mix(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Instance seeds of a run: every input derives from --seed. */
std::uint64_t
instanceSeed(std::uint64_t seed, std::size_t k)
{
    return mix(seed, 100 + k);
}

/** Linear-interpolated quantile (q in [0, 1]); 0 for no samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Largest resident set of this process or any reaped child. */
double
peakRssMb()
{
    struct rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
           1024.0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ',
                                                          colon + 1));
        }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

// ---- generated inputs ---------------------------------------------

struct Inputs
{
    Graph topo;
    AllocationProblem prob;
};

/** Chordal ring with n/4 chords and NPB utilities at 172 W/node. */
Inputs
makeInputs(std::size_t n, std::uint64_t seed, Tracer &tr)
{
    Graph topo = [&] {
        Scope s(tr, "makeChordalRing", Layer::graph);
        Rng rng(mix(seed, 1));
        return makeChordalRing(n, n / 4, rng);
    }();
    AllocationProblem prob = AllocationProblem::Builder()
                                 .npbCluster(n, mix(seed, 2))
                                 .budgetPerNode(kWattsPerNode)
                                 .build();
    return {std::move(topo), std::move(prob)};
}

/**
 * Demand-response step: move the budget by 5-20% of the base
 * budget, up or down, keeping it inside [0.8, 1.2] x base (one
 * direction always fits, since the band is twice the largest
 * step).
 */
double
nextBudgetDelta(Rng &rng, double base, double current)
{
    const double mag = rng.uniform(0.05, 0.20) * base;
    double target = current + (rng.bernoulli(0.5) ? mag : -mag);
    if (target > 1.2 * base || target < 0.8 * base)
        target = 2.0 * current - target;
    target = std::clamp(target, 0.8 * base, 1.2 * base);
    return target - current;
}

// ---- correctness checks (off the clock) ---------------------------

struct CapCheck
{
    bool ok = true;
    /** Utility over the KKT-oracle utility (1 when not checked). */
    double quality = 1.0;
    std::string why;
};

/**
 * Check one allocation of the nodes in `ids` against budget P:
 * every cap inside its box, sum p < P, sum e == sum p - P within
 * rounding (when estimates are given), and -- with `kkt` -- the
 * achieved utility against the KKT oracle on the same nodes.
 */
CapCheck
checkCaps(const std::vector<UtilityPtr> &us, double budget,
          const std::vector<double> &p, const std::vector<double> *e,
          const std::vector<std::size_t> &ids, bool kkt)
{
    CapCheck c;
    double sum_p = 0.0, sum_e = 0.0;
    for (std::size_t i : ids) {
        const double lo = us[i]->minPower(), hi = us[i]->maxPower();
        if (!(p[i] >= lo - 1e-9 && p[i] <= hi + 1e-9)) {
            c.ok = false;
            c.why = "cap outside its box at node " + std::to_string(i);
        }
        sum_p += p[i];
        if (e != nullptr)
            sum_e += (*e)[i];
    }
    if (!(sum_p < budget)) {
        c.ok = false;
        c.why = "sum p >= budget";
    }
    if (e != nullptr &&
        !(std::abs(sum_e - (sum_p - budget)) <=
          1e-9 * std::max(budget, 1.0))) {
        c.ok = false;
        c.why = "sum e != sum p - P";
    }
    if (kkt) {
        AllocationProblem sub;
        sub.budget = budget;
        std::vector<double> sub_p;
        for (std::size_t i : ids) {
            sub.utilities.push_back(us[i]);
            sub_p.push_back(p[i]);
        }
        const AllocationResult opt = solveKkt(sub);
        c.quality = totalUtility(sub.utilities, sub_p) / opt.utility;
        if (!(c.quality >= kQualityFloor)) {
            c.ok = false;
            c.why = "utility " + std::to_string(c.quality) +
                    " of the KKT optimum";
        }
    }
    return c;
}

std::vector<std::size_t>
allIds(std::size_t n)
{
    std::vector<std::size_t> ids(n);
    for (std::size_t i = 0; i < n; ++i)
        ids[i] = i;
    return ids;
}

std::size_t
bitwiseMismatches(const std::vector<double> &a,
                  const std::vector<double> &b,
                  const std::vector<std::size_t> &ids)
{
    if (a.size() != b.size())
        return ids.size() + 1;
    std::size_t bad = 0;
    for (std::size_t i : ids)
        bad += std::memcmp(&a[i], &b[i], sizeof(double)) != 0;
    return bad;
}

// ---- results ------------------------------------------------------

struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double min_quality = 1.0;

    void note(const CapCheck &c, const std::string &what)
    {
        ++attempted;
        min_quality = std::min(min_quality, c.quality);
        if (!c.ok) {
            ++failed;
            std::cerr << "ttc_bench: check failed (" << what
                      << "): " << c.why << "\n";
        }
    }
    void fail(const std::string &what)
    {
        ++attempted;
        ++failed;
        std::cerr << "ttc_bench: check failed: " << what << "\n";
    }
};

/** One pass of a workload: end-to-end values plus, from a traced
 * pass, the per-layer ones. */
struct Pass
{
    std::vector<double> ttc_ms;
    /** Single process: raw event wall times, for comparison. */
    std::vector<double> raw_ttc_ms;
    double ttc_p50_ms = 0.0, ttc_p95_ms = 0.0;
    double cold_cap_s = 0.0;
    double rounds_per_s = 0.0;
    double setup_s = 0.0;
    double availability = 1.0;
    std::size_t events = 0;
    /** Events per instance (single process) or sharded runs, so a
     * traced twin can replay the same amount of work. */
    std::vector<std::size_t> counts;
    Tally tally;
    std::map<std::string, double> layer;
};

void
finishTtc(Pass &p)
{
    p.ttc_p50_ms = quantile(p.ttc_ms, 0.50);
    p.ttc_p95_ms = quantile(p.ttc_ms, 0.95);
}

/** Per-layer self seconds from the tracer into `p.layer`. */
void
addSelfTimes(Pass &p, const Tracer &tr)
{
    const auto self = tr.selfSeconds();
    for (std::size_t l = 0; l < ttc::kLayers; ++l)
        p.layer[std::string(ttc::layerName(static_cast<Layer>(l))) +
                ".self_s"] = self[l];
    p.layer["trace.spans"] = static_cast<double>(tr.spans().size());
}

// ---- single-process workloads -------------------------------------

struct SingleSpec
{
    std::size_t n;
    /** true: demand-response budget steps; false: job churn. */
    bool budget_events;
    /** Cluster instances per run (cold cap and time to cap vary
     * with the instance; pooling several keeps a run steady). */
    std::size_t instances;
    std::size_t min_events;
    std::size_t setup_reps;
};

/** Samples pooled over a run's instances. */
struct SingleAcc
{
    std::vector<double> setup_s, cold_s;
    /** Wall time of every round stepped by an event. */
    std::vector<double> step_s;
    /** Per event: rounds, and wall time outside its rounds. */
    std::vector<std::size_t> event_rounds;
    std::vector<double> event_other_s;
    double hot_frac = 0.0;
};

/** One timed step(); the round's wall time. */
double
timedStep(DibaAllocator &alloc, Rng &rng, Tracer &tr)
{
    Scope s(tr, "step", Layer::alloc);
    const auto t0 = Clock::now();
    alloc.step(rng);
    return since(t0);
}

/**
 * One instance: build (setup_reps times), cold-solve, then run
 * capping events until `seconds` of event time and `min_events`
 * events (or exactly `exact` events).  Returns the events run.
 */
std::size_t
runSingleInstance(const SingleSpec &spec, std::uint64_t seed,
                  double seconds, std::size_t min_events,
                  std::size_t exact, Tracer &tr, Pass &pass,
                  SingleAcc &acc)
{
    const Inputs in = makeInputs(spec.n, seed, tr);
    const std::size_t n = spec.n;
    const std::vector<std::size_t> ids = allIds(n);
    const DibaAllocator::Config cfg{};
    Rng step_rng(1); // DiBA rounds are deterministic; unused draws

    std::unique_ptr<DibaAllocator> alloc;
    double reset_s = 0.0;
    for (std::size_t rep = 0; rep < spec.setup_reps; ++rep) {
        Scope setup(tr, "setup", Layer::bench);
        alloc.reset();
        const auto t0 = Clock::now();
        {
            Scope s(tr, "DibaAllocator", Layer::alloc);
            alloc = std::make_unique<DibaAllocator>(in.topo, cfg);
        }
        const auto t1 = Clock::now();
        {
            Scope s(tr, "reset", Layer::alloc);
            alloc->reset(in.prob);
        }
        reset_s = since(t1);
        acc.setup_s.push_back(since(t0));
    }

    // Cold cap: from reset (of the last setup) until converged(),
    // at the cold solve's median round time.
    {
        Scope cold(tr, "cold", Layer::bench);
        std::vector<double> cold_steps;
        while (!alloc->converged() &&
               cold_steps.size() < kMaxRoundsPerEvent)
            cold_steps.push_back(timedStep(*alloc, step_rng, tr));
        acc.cold_s.push_back(reset_s + median(cold_steps) *
                                           double(cold_steps.size()));
    }
    if (!alloc->converged())
        pass.tally.fail("cold solve did not converge");
    else
        pass.tally.note(checkCaps(alloc->problem().utilities,
                                  alloc->budget(), alloc->power(),
                                  &alloc->estimates(), ids, true),
                        "cold solve");

    std::vector<UtilityPtr> pool;
    for (const BenchmarkProfile &b : npbHpccBenchmarks())
        pool.push_back(b.utilityPtr());

    Rng ev(mix(seed, 3));
    const double base = in.prob.budget;
    double event_s = 0.0;
    std::size_t events = 0;
    const auto loop0 = Clock::now();
    for (;;) {
        if (exact != 0 ? events >= exact
                       : (events >= min_events && event_s >= seconds) ||
                             since(loop0) > kHardCapS)
            break;

        // Draw the event off the clock.
        double delta = 0.0;
        std::vector<std::pair<std::size_t, UtilityPtr>> jobs;
        if (spec.budget_events) {
            delta = nextBudgetDelta(ev, base, alloc->budget());
        } else {
            const auto swaps = ev.uniformInt(1, 4);
            for (std::int64_t j = 0; j < swaps; ++j) {
                const std::size_t node = ev.index(n);
                jobs.emplace_back(node, pool[ev.index(pool.size())]);
            }
        }

        std::size_t rounds = 0;
        double step_s = 0.0;
        const auto t0 = Clock::now();
        {
            Scope event(tr, "event", Layer::bench);
            if (spec.budget_events) {
                AllocationResult prev;
                {
                    Scope s(tr, "result", Layer::alloc);
                    prev = alloc->result();
                }
                Scope s(tr, "warmStart", Layer::alloc);
                alloc->warmStart(prev, delta);
            } else {
                for (auto &[node, u] : jobs) {
                    Scope s(tr, "setUtility", Layer::alloc);
                    alloc->setUtility(node, u);
                }
            }
            do {
                const double dt = timedStep(*alloc, step_rng, tr);
                acc.step_s.push_back(dt);
                step_s += dt;
                ++rounds;
            } while (!alloc->converged() &&
                     rounds < kMaxRoundsPerEvent);
        }
        const double dt = since(t0);
        event_s += dt;
        acc.event_rounds.push_back(rounds);
        acc.event_other_s.push_back(dt - step_s);
        pass.raw_ttc_ms.push_back(1e3 * dt);
        acc.hot_frac += static_cast<double>(alloc->frontierHotCount()) /
                        static_cast<double>(n);
        ++events;

        if (!alloc->converged()) {
            pass.tally.fail("event " + std::to_string(events) +
                            " did not converge");
            continue;
        }
        pass.tally.note(checkCaps(alloc->problem().utilities,
                                  alloc->budget(), alloc->power(),
                                  &alloc->estimates(), ids,
                                  events % kKktEvery == 0),
                        "event " + std::to_string(events));
    }
    // The final state always gets the oracle check.
    pass.tally.note(checkCaps(alloc->problem().utilities,
                              alloc->budget(), alloc->power(),
                              &alloc->estimates(), ids, true),
                    "final state");
    return events;
}

/**
 * A single-process run: `spec.instances` clusters drawn from the
 * seed, the time budget split evenly, event times pooled.  `exact`
 * (per instance) replays a previous pass's event counts.
 */
Pass
runSingle(const SingleSpec &spec, std::uint64_t seed, double seconds,
          const std::vector<std::size_t> *exact, Tracer &tr)
{
    Pass pass;
    SingleAcc acc;
    const std::size_t k_n = spec.instances;
    for (std::size_t k = 0; k < k_n; ++k) {
        const std::size_t events = runSingleInstance(
            spec, instanceSeed(seed, k), seconds / double(k_n),
            (spec.min_events + k_n - 1) / k_n,
            exact != nullptr ? (*exact)[k] : 0, tr, pass, acc);
        pass.counts.push_back(events);
        pass.events += events;
    }
    // Time to cap per event: its own work outside the rounds
    // (warmStart, result, setUtility, loop), measured, plus its
    // rounds at the run's median round time -- the round cost
    // without the bursts a shared host adds to some rounds.
    const double round_s = median(acc.step_s);
    std::uint64_t total_rounds = 0;
    for (std::size_t e = 0; e < acc.event_rounds.size(); ++e) {
        total_rounds += acc.event_rounds[e];
        pass.ttc_ms.push_back(
            1e3 * (acc.event_other_s[e] +
                   round_s * static_cast<double>(acc.event_rounds[e])));
    }
    finishTtc(pass);
    pass.setup_s = median(acc.setup_s);
    pass.cold_cap_s = mean(acc.cold_s);
    pass.rounds_per_s = round_s > 0.0 ? 1.0 / round_s : 0.0;

    if (tr.on()) {
        const double events = std::max<double>(1.0, pass.events);
        auto &L = pass.layer;
        L["alloc.ctor_ms"] = 1e3 * median(tr.durations("DibaAllocator"));
        L["alloc.reset_ms"] = 1e3 * median(tr.durations("reset"));
        L["alloc.warm_start_ms"] = 1e3 * mean(tr.durations("warmStart"));
        L["alloc.result_ms"] = 1e3 * mean(tr.durations("result"));
        const double step_us = 1e6 * mean(tr.durations("step"));
        L["alloc.step_us"] = step_us;
        L["alloc.step_ns_per_node"] =
            1e3 * step_us / static_cast<double>(spec.n);
        L["alloc.rounds_per_event"] =
            static_cast<double>(total_rounds) / events;
        L["alloc.set_utility_us"] =
            1e6 * mean(tr.durations("setUtility"));
        L["alloc.hot_frac"] = acc.hot_frac / events;
        L["graph.build_ms"] =
            1e3 * mean(tr.durations("makeChordalRing"));
        addSelfTimes(pass, tr);
    }
    return pass;
}

// ---- sharded workloads --------------------------------------------

constexpr std::uint32_t kShards = 2;

cluster::ShardRunOptions
shardOptions(std::size_t rounds)
{
    cluster::ShardRunOptions opt;
    opt.num_shards = kShards;
    opt.rounds = rounds;
    opt.proto = net::SocketTransport::Proto::Udp;
    return opt;
}

/** One timed runShardedDiba call. */
struct TimedRun
{
    cluster::ShardRunResult res;
    double wall_s = 0.0;

    /** Fork, handshake, result collection and reaping. */
    double setupS() const { return wall_s - res.round_loop_s; }
};

TimedRun
timedRun(const Inputs &in, const cluster::ShardRunOptions &opt,
         Tracer &tr)
{
    TimedRun t;
    const auto t0 = Clock::now();
    {
        Scope s(tr, "runShardedDiba", Layer::cluster);
        t.res = cluster::runShardedDiba(in.prob, in.topo,
                                        DibaAllocator::Config{}, opt);
    }
    t.wall_s = since(t0);
    return t;
}

/** Per-round wire and phase counters of one sharded run. */
void
addWireLayers(Pass &p, const cluster::ShardRunResult &r)
{
    const double rounds = std::max<double>(1.0, r.rounds_run);
    auto &L = p.layer;
    L["net.send_ms_per_round"] = 1e3 * r.phase_send_s / rounds;
    L["net.drain_ms_per_round"] = 1e3 * r.phase_drain_s / rounds;
    L["alloc.interior_ms_per_round"] =
        1e3 * r.phase_interior_s / rounds;
    L["alloc.boundary_ms_per_round"] =
        1e3 * r.phase_boundary_s / rounds;
    L["net.bytes_per_round"] = static_cast<double>(r.wire_bytes) / rounds;
    L["net.frames_per_round"] =
        static_cast<double>(r.wire_frames) / rounds;
    L["net.retransmits"] = static_cast<double>(r.retransmits);
    L["net.duplicates"] = static_cast<double>(r.duplicates);
    L["net.suppressed_frames"] =
        static_cast<double>(r.suppressed_frames);
    L["net.delta_frames"] = static_cast<double>(r.delta_frames);
    L["cluster.cut_edges"] = static_cast<double>(r.plan.cut_edges);
    // Kernel time per round summed over shards: the sharded
    // counterpart of the single-process step span.
    const double step_us =
        1e6 * (r.phase_interior_s + r.phase_boundary_s) / rounds;
    L["alloc.step_us"] = step_us;
    L["alloc.step_ns_per_node"] =
        1e3 * step_us / static_cast<double>(r.power.size());
}

/**
 * What a shard does before its first round, timed from the
 * benchmark: build a full-size allocator, reset it, plan the cut.
 */
void
traceShardSetup(Pass &p, const Inputs &in, Tracer &tr)
{
    if (!tr.on())
        return;
    Scope setup(tr, "shard setup", Layer::bench);
    std::unique_ptr<DibaAllocator> a;
    {
        Scope s(tr, "DibaAllocator", Layer::alloc);
        a = std::make_unique<DibaAllocator>(in.topo,
                                            DibaAllocator::Config{});
    }
    {
        Scope s(tr, "reset", Layer::alloc);
        a->reset(in.prob);
    }
    {
        Scope s(tr, "makeShardPlan", Layer::cluster);
        (void)cluster::makeShardPlan(*a, kShards);
    }
    p.layer["alloc.ctor_ms"] = 1e3 * median(tr.durations("DibaAllocator"));
    p.layer["alloc.reset_ms"] = 1e3 * median(tr.durations("reset"));
    p.layer["cluster.plan_ms"] =
        1e3 * median(tr.durations("makeShardPlan"));
    p.layer["graph.build_ms"] =
        1e3 * mean(tr.durations("makeChordalRing"));
}

/**
 * The shard2-udp schedule, computed once per process on a
 * single-process reference that the sharded runs are bitwise-pinned
 * to: cold solve, then budget steps, each after 0-4 quiet rounds
 * and each settled (converged()) before the next.  The reference
 * also times result() + warmStart() per step: every shard makes
 * exactly that call on its own full-size allocator.
 */
struct StepSchedule
{
    std::size_t cold_rounds = 0;
    std::size_t total_rounds = 0;
    std::vector<cluster::ShardRunOptions::BudgetStep> steps;
    std::vector<std::size_t> settle_rounds;
    std::vector<double> final_p, final_e;
    double final_budget = 0.0;
    /** The reference, left at the final state: it re-times the
     * step calls between sharded runs. */
    std::unique_ptr<DibaAllocator> ref;
    Tally tally;
};

/**
 * Time `count` result() + warmStart() pairs on the reference,
 * stepping the budget by each scheduled delta and straight back, so
 * the reference ends where it started.
 */
void
timeStepCalls(StepSchedule &s, std::size_t count,
              std::vector<double> &result_s,
              std::vector<double> &warm_start_s)
{
    for (std::size_t k = 0; k < count; ++k) {
        const double d = s.steps[k % s.steps.size()].delta;
        for (const double delta : {d, -d}) {
            const auto t0 = Clock::now();
            const AllocationResult prev = s.ref->result();
            const auto t1 = Clock::now();
            s.ref->warmStart(prev, delta);
            result_s.push_back(
                std::chrono::duration<double>(t1 - t0).count());
            warm_start_s.push_back(since(t1));
        }
    }
}

StepSchedule
planBudgetSteps(const Inputs &in, std::uint64_t seed,
                std::size_t num_events)
{
    StepSchedule s;
    const std::vector<std::size_t> ids = allIds(in.prob.size());
    s.ref = std::make_unique<DibaAllocator>(in.topo,
                                            DibaAllocator::Config{});
    DibaAllocator &ref = *s.ref;
    ref.reset(in.prob);
    Rng step_rng(1);
    while (!ref.converged() && s.cold_rounds < kMaxRoundsPerEvent) {
        ref.step(step_rng);
        ++s.cold_rounds;
    }
    if (!ref.converged())
        s.tally.fail("reference cold solve did not converge");
    s.tally.note(checkCaps(ref.problem().utilities, ref.budget(),
                           ref.power(), &ref.estimates(), ids, true),
                 "reference cold solve");

    Rng ev(mix(seed, 3));
    const double base = in.prob.budget;
    std::size_t round = s.cold_rounds;
    for (std::size_t k = 0; k < num_events; ++k) {
        const auto quiet = ev.uniformInt(0, 4);
        for (std::int64_t q = 0; q < quiet; ++q, ++round)
            ref.step(step_rng);
        const double delta = nextBudgetDelta(ev, base, ref.budget());
        s.steps.push_back({round, delta});
        ref.warmStart(ref.result(), delta);
        std::size_t rounds = 0;
        do {
            ref.step(step_rng);
            ++rounds;
        } while (!ref.converged() && rounds < kMaxRoundsPerEvent);
        round += rounds;
        s.settle_rounds.push_back(rounds);
        if (!ref.converged()) {
            s.tally.fail("reference step " + std::to_string(k) +
                         " did not converge");
            continue;
        }
        s.tally.note(checkCaps(ref.problem().utilities, ref.budget(),
                               ref.power(), &ref.estimates(), ids,
                               k % kKktEvery == 0),
                     "reference step " + std::to_string(k));
    }
    s.total_rounds = round;
    s.final_p = ref.power();
    s.final_e = ref.estimates();
    s.final_budget = ref.budget();
    return s;
}

/** Mean over instances of each instance's median sample: every
 * cluster weighs the same however many runs it got. */
double
instanceMean(const std::map<std::size_t, std::vector<double>> &by)
{
    std::vector<double> meds;
    for (const auto &[k, v] : by)
        meds.push_back(median(v));
    return mean(meds);
}

struct StepInstance
{
    Inputs in;
    StepSchedule sched;
};

/**
 * shard2-udp: sharded runs of the whole schedule, rotating over the
 * clusters, until `seconds` of run time (or exactly `exact_runs`
 * runs); medians over runs.
 *
 * A shard reports only its round-loop total, so per-step times are
 * composed from measured parts: the run's time per round (loop time
 * less the steps' warmStart time) times the step's exact settle
 * rounds, plus the median result() + warmStart() time -- the call
 * every shard makes on its own full-size allocator -- timed on the
 * reference between runs.
 */
Pass
runShardSteps(std::vector<StepInstance> &insts, double seconds,
              std::size_t exact_runs, Tracer &tr)
{
    constexpr std::size_t kProbesPerRun = 10;
    Pass pass;
    for (const StepInstance &x : insts) {
        pass.tally.attempted += x.sched.tally.attempted;
        pass.tally.failed += x.sched.tally.failed;
        pass.tally.min_quality =
            std::min(pass.tally.min_quality, x.sched.tally.min_quality);
    }
    traceShardSetup(pass, insts.front().in, tr);

    struct Done
    {
        std::size_t inst;
        double loop_s;
    };
    std::vector<Done> done;
    std::vector<double> setup, result_s, warm_start_s;
    double on_clock = 0.0;
    std::size_t runs = 0;
    cluster::ShardRunResult last;
    for (;;) {
        if (exact_runs != 0
                ? runs >= exact_runs
                : runs >= insts.size() && on_clock >= seconds)
            break;
        const std::size_t k = runs % insts.size();
        const Inputs &in = insts[k].in;
        StepSchedule &sched = insts[k].sched;
        const std::vector<std::size_t> ids = allIds(in.prob.size());
        ++runs;
        auto opt = shardOptions(sched.total_rounds);
        opt.budget_steps = sched.steps;
        const TimedRun b = timedRun(in, opt, tr);
        on_clock += b.wall_s;
        timeStepCalls(sched, kProbesPerRun, result_s, warm_start_s);

        if (!b.res.ok) {
            pass.tally.fail("sharded run failed: " + b.res.error);
            continue;
        }
        const std::size_t bad =
            bitwiseMismatches(b.res.power, sched.final_p, ids) +
            bitwiseMismatches(b.res.estimates, sched.final_e, ids);
        if (bad != 0) {
            pass.tally.fail(std::to_string(bad) +
                            " values differ bitwise from the "
                            "single-process run");
            continue;
        }
        pass.tally.note(checkCaps(in.prob.utilities, sched.final_budget,
                                  b.res.power, &b.res.estimates, ids,
                                  true),
                        "sharded final state");
        done.push_back({k, b.res.round_loop_s});
        setup.push_back(b.setupS());
        pass.events += sched.steps.size();
        last = b.res;
    }

    const double step_fixed_s = median(result_s) + median(warm_start_s);
    std::vector<double> rps, p50, p95;
    std::map<std::size_t, std::vector<double>> cold;
    for (const Done &d : done) {
        const StepSchedule &sched = insts[d.inst].sched;
        const double rounds = static_cast<double>(sched.total_rounds);
        const double round_s =
            (d.loop_s - static_cast<double>(sched.steps.size()) *
                            step_fixed_s) /
            rounds;
        std::vector<double> ttc;
        for (std::size_t r : sched.settle_rounds)
            ttc.push_back(1e3 * (static_cast<double>(r) * round_s +
                                 step_fixed_s));
        p50.push_back(quantile(ttc, 0.50));
        p95.push_back(quantile(ttc, 0.95));
        cold[d.inst].push_back(round_s *
                               static_cast<double>(sched.cold_rounds));
        rps.push_back(rounds / d.loop_s);
    }
    pass.counts = {runs};
    pass.ttc_p50_ms = median(p50);
    pass.ttc_p95_ms = median(p95);
    pass.cold_cap_s = instanceMean(cold);
    pass.rounds_per_s = median(rps);
    pass.setup_s = median(setup);

    if (tr.on()) {
        addWireLayers(pass, last);
        const StepSchedule &sched = insts.front().sched;
        double settle = 0.0;
        for (std::size_t r : sched.settle_rounds)
            settle += static_cast<double>(r);
        pass.layer["alloc.rounds_per_event"] =
            settle / std::max<double>(1.0, sched.steps.size());
        pass.layer["alloc.warm_start_ms"] = 1e3 * median(warm_start_s);
        pass.layer["alloc.result_ms"] = 1e3 * median(result_s);
        pass.layer["cluster.fork_handshake_s"] = median(setup);
        addSelfTimes(pass, tr);
    }
    return pass;
}

/**
 * The shard-kill schedule: the kill lands 0-19 rounds after the
 * cold cap (a server dies while the cluster is capped); the run
 * lasts until a reference survivor cluster has re-capped, plus a
 * margin.
 */
struct KillSchedule
{
    std::size_t cold_rounds = 0;
    std::size_t kill_round = 0;
    std::size_t total_rounds = 0;
    std::vector<double> clean_p, clean_e;
    cluster::ShardPlan plan;
    Tally tally;
};

constexpr std::uint32_t kVictim = 1;

/** Survivor state after a recovery resuming at some round, and the
 * rounds the survivors need from there to re-cap. */
struct SurvivorRef
{
    std::vector<double> p, e;
    std::size_t settle_rounds = 0;
    bool settled = false;
};

/** Single-process replica of the survivors: run to `resume`, apply
 * the recovery surgery, run to `total` rounds. */
SurvivorRef
survivorReplica(const Inputs &in, const cluster::ShardPlan &plan,
                std::uint64_t resume, std::uint64_t dead_mask,
                std::uint32_t epoch, std::size_t total)
{
    SurvivorRef s;
    DibaAllocator ref(in.topo, DibaAllocator::Config{});
    ref.reset(in.prob);
    net::LoopbackTransport loop;
    for (std::uint64_t r = 0; r < resume; ++r)
        ref.stepWithTransport(loop);
    cluster::applyShardRecovery(ref, plan, dead_mask, epoch);
    for (std::size_t r = resume; r < total || !s.settled; ++r) {
        if (r - resume >= kMaxRoundsPerEvent)
            break;
        ref.stepWithTransport(loop);
        if (!s.settled && ref.converged()) {
            s.settled = true;
            s.settle_rounds = r + 1 - resume;
        }
        if (r + 1 == total) {
            s.p = ref.power();
            s.e = ref.estimates();
        }
    }
    return s;
}

KillSchedule
planKill(const Inputs &in, std::uint64_t seed)
{
    KillSchedule s;
    Rng ev(mix(seed, 3));
    {
        DibaAllocator ref(in.topo, DibaAllocator::Config{});
        ref.reset(in.prob);
        net::LoopbackTransport loop;
        while (!ref.converged() && s.cold_rounds < kMaxRoundsPerEvent) {
            ref.stepWithTransport(loop);
            ++s.cold_rounds;
        }
        if (!ref.converged())
            s.tally.fail("reference cold solve did not converge");
        s.plan = cluster::makeShardPlan(ref, kShards);
    }
    s.kill_round = s.cold_rounds +
                   static_cast<std::size_t>(ev.uniformInt(0, 19));

    // Size the run so survivors recovering at the kill round re-cap
    // with a margin to spare.
    const SurvivorRef post = survivorReplica(
        in, s.plan, s.kill_round, 1ull << kVictim, 1, s.kill_round);
    if (!post.settled)
        s.tally.fail("reference survivors did not re-converge");
    s.total_rounds = s.kill_round + post.settle_rounds + 20;

    DibaAllocator clean(in.topo, DibaAllocator::Config{});
    clean.reset(in.prob);
    net::LoopbackTransport loop;
    for (std::size_t r = 0; r < s.total_rounds; ++r)
        clean.stepWithTransport(loop);
    s.clean_p = clean.power();
    s.clean_e = clean.estimates();
    return s;
}

/**
 * shard-kill: pairs of identical recovering 2-shard runs, one clean
 * and one whose victim shard SIGKILLs itself at the kill round.
 *
 * Time to cap after the kill is the broker's measured recovery time
 * (death confirmed -> survivors resumed) plus the survivors' exact
 * re-settle rounds at the clean run's mean round time.  The outage
 * -- the wall time the kill adds to the clean twin -- is reported
 * as a layer metric: it is the difference of two whole-run wall
 * times and too noisy to gate on.
 */
struct KillInstance
{
    Inputs in;
    KillSchedule sched;
    /** Survivor replicas by resume round (deterministic, so one
     * replica serves every kill that resumes at that round). */
    std::map<std::uint64_t, SurvivorRef> refs;
};

Pass
runShardKill(std::vector<KillInstance> &insts, double seconds,
             std::size_t exact_pairs, Tracer &tr)
{
    Pass pass;
    for (const KillInstance &x : insts) {
        pass.tally.attempted += x.sched.tally.attempted;
        pass.tally.failed += x.sched.tally.failed;
    }
    traceShardSetup(pass, insts.front().in, tr);

    std::vector<double> rps, setup, outage, avail, recovery, detect,
        rollback, gaveup, settle;
    std::map<std::size_t, std::vector<double>> cold;
    double on_clock = 0.0;
    std::size_t pairs = 0;
    cluster::ShardRunResult last_clean;
    for (;;) {
        if (exact_pairs != 0
                ? pairs >= exact_pairs
                : pairs >= 2 * insts.size() && on_clock >= seconds)
            break;
        const std::size_t k = pairs % insts.size();
        KillInstance &inst = insts[k];
        const Inputs &in = inst.in;
        const KillSchedule &sched = inst.sched;
        auto &refs = inst.refs;
        const std::size_t n = in.prob.size();
        const std::vector<std::size_t> ids = allIds(n);
        std::vector<std::size_t> survivors;
        for (std::size_t i = 0; i < n; ++i)
            if (sched.plan.owner_of[i] != kVictim)
                survivors.push_back(i);
        ++pairs;
        auto opt = shardOptions(sched.total_rounds);
        opt.recover = true;
        const TimedRun clean = timedRun(in, opt, tr);
        opt.faults.killAt(kVictim, sched.kill_round);
        const TimedRun kill = timedRun(in, opt, tr);
        on_clock += clean.wall_s + kill.wall_s;

        if (!clean.res.ok || !kill.res.ok) {
            pass.tally.fail("sharded run failed: " + clean.res.error +
                            kill.res.error);
            continue;
        }
        const std::size_t bad_clean =
            bitwiseMismatches(clean.res.power, sched.clean_p, ids) +
            bitwiseMismatches(clean.res.estimates, sched.clean_e, ids);
        if (bad_clean != 0) {
            pass.tally.fail(std::to_string(bad_clean) +
                            " clean-run values differ bitwise from the "
                            "single-process run");
            continue;
        }
        pass.tally.note(checkCaps(in.prob.utilities, in.prob.budget,
                                  clean.res.power, &clean.res.estimates,
                                  ids, true),
                        "clean run");
        if (kill.res.dead_mask != (1ull << kVictim) ||
            kill.res.recoveries != 1) {
            pass.tally.fail("kill run did not recover the victim");
            continue;
        }
        auto it = refs.find(kill.res.recovery_round);
        if (it == refs.end())
            it = refs.emplace(kill.res.recovery_round,
                              survivorReplica(in, kill.res.plan,
                                              kill.res.recovery_round,
                                              kill.res.dead_mask,
                                              kill.res.epoch,
                                              sched.total_rounds))
                     .first;
        const SurvivorRef &ref = it->second;
        const std::size_t bad =
            bitwiseMismatches(kill.res.power, ref.p, survivors) +
            bitwiseMismatches(kill.res.estimates, ref.e, survivors);
        if (bad != 0 || !ref.settled) {
            pass.tally.fail(std::to_string(bad) +
                            " survivor values differ bitwise from "
                            "applyShardRecovery");
            continue;
        }
        // The survivors allocate their held budget sum p - sum e.
        double held = 0.0;
        for (std::size_t i : survivors)
            held += kill.res.power[i] - kill.res.estimates[i];
        pass.tally.note(checkCaps(in.prob.utilities, held,
                                  kill.res.power, &kill.res.estimates,
                                  survivors, true),
                        "survivors after recovery");

        const double round_s = clean.res.round_loop_s /
                               static_cast<double>(sched.total_rounds);
        pass.ttc_ms.push_back(
            1e3 * (kill.res.recovery_s +
                   round_s * static_cast<double>(ref.settle_rounds)));
        cold[k].push_back(round_s *
                          static_cast<double>(sched.cold_rounds));
        rps.push_back(1.0 / round_s);
        setup.push_back(clean.setupS());
        setup.push_back(kill.setupS());
        avail.push_back(kill.res.availability);
        outage.push_back(1e3 * (kill.wall_s - clean.wall_s));
        recovery.push_back(1e3 * kill.res.recovery_s);
        detect.push_back(static_cast<double>(
            kill.res.quiesce_round > sched.kill_round
                ? kill.res.quiesce_round - sched.kill_round
                : 0));
        rollback.push_back(static_cast<double>(kill.res.quiesce_round -
                                               kill.res.recovery_round));
        gaveup.push_back(static_cast<double>(kill.res.gaveup_frames));
        settle.push_back(static_cast<double>(ref.settle_rounds));
        ++pass.events;
        last_clean = clean.res;
    }
    pass.counts = {pairs};
    finishTtc(pass);
    pass.cold_cap_s = instanceMean(cold);
    pass.rounds_per_s = median(rps);
    pass.setup_s = median(setup);
    pass.availability =
        avail.empty() ? 0.0 : *std::min_element(avail.begin(), avail.end());

    if (tr.on()) {
        addWireLayers(pass, last_clean);
        pass.layer["alloc.rounds_per_event"] = median(settle);
        pass.layer["cluster.fork_handshake_s"] = median(setup);
        pass.layer["fault.outage_ms"] = median(outage);
        pass.layer["fault.recovery_ms"] = median(recovery);
        pass.layer["fault.detection_rounds"] = median(detect);
        pass.layer["fault.rollback_rounds"] = median(rollback);
        pass.layer["fault.gaveup_frames"] = median(gaveup);
        addSelfTimes(pass, tr);
    }
    return pass;
}

// ---- command line ----------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    /** Override the workload's node count (0 = its default). */
    std::size_t nodes = 0;
    std::string trace_out;
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has = i + 1 < argc;
        if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--workload" && has) {
            o.workload = argv[++i];
        } else if (a == "--seed" && has) {
            o.seed = std::stoull(argv[++i]);
        } else if (a == "--seconds" && has) {
            o.seconds = std::stod(argv[++i]);
        } else if (a == "--trace" && has) {
            o.trace = std::string(argv[++i]) == "1";
        } else if (a == "--nodes" && has) {
            o.nodes = std::stoull(argv[++i]);
        } else if (a == "--trace-out" && has) {
            o.trace_out = argv[++i];
        } else {
            return false;
        }
    }
    return !o.workload.empty() && o.seconds > 0.0;
}

struct Workload
{
    std::size_t n;
    /** One pass: time-bounded, or replaying `exact` counts. */
    std::function<Pass(double seconds,
                       const std::vector<std::size_t> *exact, Tracer &)>
        run;
};

/** Build the workload's runner; sharded schedules are planned once
 * (off the clock) and shared by the untraced and traced passes. */
bool
makeWorkload(const Options &o, Workload &w)
{
    const bool smoke = o.smoke;
    const std::uint64_t seed = o.seed;
    auto pick = [&](std::size_t full) {
        return o.nodes != 0 ? o.nodes : smoke ? std::size_t(512) : full;
    };
    if (o.workload == "dr-budget" || o.workload == "job-churn") {
        const bool budget = o.workload == "dr-budget";
        const SingleSpec spec{pick(budget ? 6400 : 1600), budget,
                              smoke ? std::size_t(1)
                              : budget ? kBudgetInstances
                                       : kChurnInstances,
                              smoke ? std::size_t(20) : std::size_t(200),
                              smoke ? std::size_t(2) : std::size_t(5)};
        w.n = spec.n;
        w.run = [=](double secs, const std::vector<std::size_t> *exact,
                    Tracer &tr) {
            return runSingle(spec, seed, secs, exact, tr);
        };
        return true;
    }
    if (o.workload == "shard2-udp") {
        const std::size_t k_n = smoke ? 1 : kStepInstances;
        const std::size_t n = pick(4096);
        Tracer off(false);
        auto insts = std::make_shared<std::vector<StepInstance>>();
        for (std::size_t k = 0; k < k_n; ++k) {
            Inputs in = makeInputs(n, instanceSeed(seed, k), off);
            StepSchedule sched = planBudgetSteps(
                in, instanceSeed(seed, k), smoke ? 20 : 200);
            insts->push_back({std::move(in), std::move(sched)});
        }
        w.n = n;
        w.run = [=](double secs, const std::vector<std::size_t> *exact,
                    Tracer &tr) {
            // Re-generate one instance's inputs under the tracer so
            // the graph layer is timed.
            if (tr.on())
                (void)makeInputs(n, instanceSeed(seed, 0), tr);
            return runShardSteps(*insts, secs,
                                 exact != nullptr ? exact->front() : 0,
                                 tr);
        };
        return true;
    }
    if (o.workload == "shard-kill") {
        const std::size_t n = pick(1024);
        const std::size_t k_n = smoke ? 1 : kKillInstances;
        Tracer off(false);
        auto insts = std::make_shared<std::vector<KillInstance>>();
        for (std::size_t k = 0; k < k_n; ++k) {
            Inputs in = makeInputs(n, instanceSeed(seed, k), off);
            KillSchedule sched = planKill(in, instanceSeed(seed, k));
            insts->push_back({std::move(in), std::move(sched), {}});
        }
        w.n = n;
        w.run = [=](double secs, const std::vector<std::size_t> *exact,
                    Tracer &tr) {
            if (tr.on())
                (void)makeInputs(n, instanceSeed(seed, 0), tr);
            return runShardKill(*insts, secs,
                                exact != nullptr ? exact->front() : 0,
                                tr);
        };
        return true;
    }
    return false;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** The per-layer metric set, printed on every workload (0 where the
 * workload never calls into that layer). */
const std::vector<std::pair<std::string, std::string>> &
layerMetricUnits()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"alloc.ctor_ms", "ms"},
        {"alloc.reset_ms", "ms"},
        {"alloc.warm_start_ms", "ms"},
        {"alloc.result_ms", "ms"},
        {"alloc.step_us", "us"},
        {"alloc.step_ns_per_node", "ns"},
        {"alloc.rounds_per_event", "count"},
        {"alloc.set_utility_us", "us"},
        {"alloc.hot_frac", "ratio"},
        {"alloc.interior_ms_per_round", "ms"},
        {"alloc.boundary_ms_per_round", "ms"},
        {"alloc.self_s", "s"},
        {"graph.build_ms", "ms"},
        {"graph.self_s", "s"},
        {"cluster.plan_ms", "ms"},
        {"cluster.cut_edges", "count"},
        {"cluster.fork_handshake_s", "s"},
        {"cluster.self_s", "s"},
        {"net.send_ms_per_round", "ms"},
        {"net.drain_ms_per_round", "ms"},
        {"net.bytes_per_round", "B"},
        {"net.frames_per_round", "count"},
        {"net.retransmits", "count"},
        {"net.duplicates", "count"},
        {"net.suppressed_frames", "count"},
        {"net.delta_frames", "count"},
        {"fault.outage_ms", "ms"},
        {"fault.recovery_ms", "ms"},
        {"fault.detection_rounds", "count"},
        {"fault.rollback_rounds", "count"},
        {"fault.gaveup_frames", "count"},
        {"bench.self_s", "s"},
        {"trace.spans", "count"},
        {"trace.overhead_p50_ms", "ms"},
        {"trace.overhead_rounds_per_s", "1/s"},
    };
    return m;
}

std::string
formatNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::cerr << "usage: ttc_bench --workload "
                     "dr-budget|job-churn|shard2-udp|shard-kill "
                     "[--seed N] [--seconds S] [--trace 0|1] "
                     "[--trace-out FILE] [--nodes N] [--smoke]\n";
        return 2;
    }
    Workload w;
    if (!makeWorkload(o, w)) {
        std::cerr << "ttc_bench: unknown workload '" << o.workload
                  << "'\n";
        return 2;
    }

    const DibaAllocator::Config cfg{};
    const bool sharded = o.workload.rfind("shard", 0) == 0;
#if defined(DPC_AVX512)
    const char *simd = "DPC_AVX512";
#elif defined(DPC_AVX2)
    const char *simd = "DPC_AVX2";
#else
    const char *simd = "none";
#endif
    std::cout << "# fingerprint {\"cpu\": \"" << jsonEscape(cpuModel())
              << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
              << ", \"compiler\": \"g++ " << jsonEscape(__VERSION__)
              << "\", \"build_type\": \"" << TTC_BUILD_TYPE
              << "\", \"simd\": \"" << simd
              << "\", \"num_threads\": " << cfg.num_threads
              << ", \"shards\": " << (sharded ? kShards : 1)
              << ", \"n\": " << w.n << ", \"workload\": \""
              << o.workload << "\", \"seed\": " << o.seed << "}"
              << std::endl;
    // Forked shards must not inherit unflushed output.
    std::fflush(stdout);

    std::vector<Metric> metrics;
    Tally total;
    auto absorb = [&](const Pass &p) {
        total.attempted += p.tally.attempted;
        total.failed += p.tally.failed;
    };

    if (!o.trace) {
        Tracer off(false);
        const Pass p = w.run(o.seconds, nullptr, off);
        absorb(p);
        metrics = {
            {"time_to_cap_p50_ms", p.ttc_p50_ms, "ms"},
            {"time_to_cap_p95_ms", p.ttc_p95_ms, "ms"},
            {"cold_cap_s", p.cold_cap_s, "s"},
            {"rounds_per_s", p.rounds_per_s, "1/s"},
            {"cap_quality", p.tally.min_quality, "ratio"},
            {"setup_s", p.setup_s, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"availability", p.availability, "ratio"},
        };
        std::cout << "# events " << p.events << " (time_to_cap samples "
                  << p.ttc_ms.size() << ")\n";
        if (!p.raw_ttc_ms.empty())
            std::cout << "# raw event wall time p50 "
                      << quantile(p.raw_ttc_ms, 0.5) << " ms, p95 "
                      << quantile(p.raw_ttc_ms, 0.95) << " ms\n";
    } else {
        // Untraced half first, then a traced twin of the same size.
        Tracer off(false);
        const Pass base = w.run(o.seconds / 2.0, nullptr, off);
        Tracer on(true);
        Pass p = w.run(o.seconds / 2.0, &base.counts, on);
        absorb(base);
        absorb(p);
        p.layer["trace.overhead_p50_ms"] = p.ttc_p50_ms - base.ttc_p50_ms;
        p.layer["trace.overhead_rounds_per_s"] =
            p.rounds_per_s - base.rounds_per_s;
        for (const auto &[name, unit] : layerMetricUnits()) {
            const auto it = p.layer.find(name);
            metrics.push_back(
                {name, it == p.layer.end() ? 0.0 : it->second, unit});
        }
        if (!o.trace_out.empty() && !on.writeChromeTrace(o.trace_out)) {
            std::cerr << "ttc_bench: cannot write " << o.trace_out
                      << "\n";
            total.fail("trace output");
        }
    }

    bool finite = true;
    for (const Metric &m : metrics) {
        finite = finite && std::isfinite(m.value);
        std::cout << "# " << m.name << " = " << formatNumber(m.value)
                  << " " << m.unit << "\n";
    }
    const bool correct = total.failed == 0 && finite;
    std::cout << "# events_failed = " << total.failed << " / "
              << total.attempted << "\n";

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << total.attempted
              << ", \"failed\": " << total.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
                  << "\": {\"value\": "
                  << (std::isfinite(m.value) ? formatNumber(m.value)
                                             : std::string("0"))
                  << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}
