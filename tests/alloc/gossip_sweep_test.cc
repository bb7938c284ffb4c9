#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "alloc/diba.hh"
#include "alloc/kkt.hh"
#include "fault/invariant_checker.hh"
#include "fault/lossy_channel.hh"
#include "graph/topologies.hh"
#include "metrics/performance.hh"
#include "tests/alloc/test_problems.hh"
#include "util/rng.hh"

namespace dpc {
namespace {

constexpr std::size_t kNodes = 64;
constexpr std::uint64_t kProblemSeed = 41;
constexpr std::uint64_t kTopoSeed = 9;
constexpr std::uint64_t kSweepSeed = 1234;

Graph
testTopology()
{
    Rng rng(kTopoSeed);
    return makeChordalRing(kNodes, kNodes / 4, rng);
}

DibaAllocator
makeAllocator(const Graph &g, std::size_t threads = 0)
{
    DibaAllocator::Config cfg;
    cfg.num_threads = threads;
    return DibaAllocator(g, cfg);
}

/**
 * The exact schedule one gossipSweep(rng) executes: the non-empty
 * color classes in ascending order, shuffled with the sweep's one
 * rng.shuffle draw.  Replaying this schedule through
 * gossipTickPair must reproduce the batched state bitwise.
 */
std::vector<std::uint32_t>
sweepSchedule(DibaAllocator &diba, Rng &rng)
{
    std::vector<std::uint32_t> colors;
    const EdgeColoring &col = diba.edgeColoring();
    for (std::uint32_t c = 0;
         c < static_cast<std::uint32_t>(col.numColors()); ++c)
        if (!col.matching(c).empty())
            colors.push_back(c);
    rng.shuffle(colors);
    return colors;
}

void
expectBitwiseEqual(const DibaAllocator &a, const DibaAllocator &b,
                   const char *what)
{
    ASSERT_EQ(a.power().size(), b.power().size());
    for (std::size_t i = 0; i < a.power().size(); ++i) {
        ASSERT_EQ(a.power()[i], b.power()[i])
            << what << ": power diverges at node " << i;
        ASSERT_EQ(a.estimates()[i], b.estimates()[i])
            << what << ": estimate diverges at node " << i;
    }
}

TEST(GossipSweepTest, BitwiseEqualsScalarReplayOfItsSchedule)
{
    const Graph g = testTopology();
    const auto prob = test::npbProblem(kNodes, 171.0, kProblemSeed);

    DibaAllocator batched = makeAllocator(g);
    DibaAllocator replay = makeAllocator(g);
    batched.reset(prob);
    replay.reset(prob);

    Rng rng_a(kSweepSeed);
    Rng rng_b(kSweepSeed);
    for (int s = 0; s < 8; ++s) {
        batched.gossipSweep(rng_a);
        for (const std::uint32_t c : sweepSchedule(replay, rng_b))
            for (const std::uint32_t id :
                 replay.edgeColoring().matching(c)) {
                const auto &[u, v] = replay.overlayEdges()[id];
                replay.gossipTickPair(u, v);
            }
        expectBitwiseEqual(batched, replay, "sweep");
    }
}

TEST(GossipSweepTest, ChannelSweepBitwiseEqualsScalarReplay)
{
    const Graph g = testTopology();
    const auto prob = test::npbProblem(kNodes, 171.0, kProblemSeed);

    LossyChannel::Config lossy;
    lossy.drop_rate = 0.2;
    DibaAllocator batched = makeAllocator(g);
    DibaAllocator replay = makeAllocator(g);
    batched.reset(prob);
    replay.reset(prob);

    Rng rng_a(kSweepSeed);
    Rng rng_b(kSweepSeed);
    LossyChannel chan_a(lossy, 77);
    LossyChannel chan_b(lossy, 77);
    for (int s = 0; s < 8; ++s) {
        batched.gossipSweep(rng_a, &chan_a);
        // Fates are drawn serially in schedule order, so a replay
        // with an identically seeded channel sees the same drops.
        for (const std::uint32_t c : sweepSchedule(replay, rng_b))
            for (const std::uint32_t id :
                 replay.edgeColoring().matching(c)) {
                const auto &[u, v] = replay.overlayEdges()[id];
                replay.gossipTickPair(u, v, &chan_b);
            }
        expectBitwiseEqual(batched, replay, "channel sweep");
    }
    EXPECT_EQ(chan_a.stats().offered, chan_b.stats().offered);
    EXPECT_EQ(chan_a.stats().dropped, chan_b.stats().dropped);
}

TEST(GossipSweepTest, ThreadCountAndNumaInvariance)
{
    const Graph g = testTopology();
    const auto prob = test::npbProblem(kNodes, 171.0, kProblemSeed);

    DibaAllocator ref = makeAllocator(g, 0);
    ref.reset(prob);
    Rng rng_ref(kSweepSeed);
    for (int s = 0; s < 6; ++s)
        ref.gossipSweep(rng_ref);

    for (const std::size_t threads : {2u, 5u}) {
        DibaAllocator mt = makeAllocator(g, threads);
        mt.reset(prob);
        Rng rng(kSweepSeed);
        for (int s = 0; s < 6; ++s)
            mt.gossipSweep(rng);
        expectBitwiseEqual(ref, mt, "threaded sweep");
    }

    // Run-twice determinism: a reset + reseeded engine reproduces
    // itself exactly.
    DibaAllocator again = makeAllocator(g, 0);
    again.reset(prob);
    Rng rng2(kSweepSeed);
    for (int s = 0; s < 6; ++s)
        again.gossipSweep(rng2);
    expectBitwiseEqual(ref, again, "run-twice");
}

/**
 * Satellite bar: over the fault_storm loss grid, batched sweeps
 * must keep the conservation invariant machine-checked every sweep
 * and land within 0.5% of the scalar tick path's utility fraction
 * after the same number of edge activations.
 */
TEST(GossipSweepTest, LossGridQualityMatchesScalarTicks)
{
    // Larger than the bitwise tests: at tiny n the scalar path's
    // random edge coverage is noisy enough to open a quality gap
    // that has nothing to do with the engines themselves.
    const std::size_t n = 256;
    Rng topo_rng(kTopoSeed);
    const Graph g = makeChordalRing(n, n / 4, topo_rng);
    const auto prob = test::npbProblem(n, 171.0, kProblemSeed);
    const double opt = solveKkt(prob).utility;
    const std::size_t sweeps = 64;

    LossyChannel::Config grid[4];
    grid[1].drop_rate = 0.1;
    grid[2].drop_rate = 0.3;
    grid[3].drop_rate = 0.05;
    grid[3].burst_enter = 0.02;
    grid[3].burst_exit = 0.25;
    grid[3].burst_drop = 0.9;

    for (std::size_t gi = 0; gi < 4; ++gi) {
        DibaAllocator sweep = makeAllocator(g);
        DibaAllocator scalar = makeAllocator(g);
        sweep.reset(prob);
        scalar.reset(prob);
        const std::size_t e = sweep.liveEdges().size();

        LossyChannel chan_a(grid[gi], 50 + gi);
        LossyChannel chan_b(grid[gi], 50 + gi);
        InvariantChecker check_a;
        InvariantChecker check_b;
        Rng rng_a(kSweepSeed);
        Rng rng_b(kSweepSeed);
        for (std::size_t s = 0; s < sweeps; ++s) {
            sweep.gossipSweep(rng_a, &chan_a);
            for (std::size_t t = 0; t < e; ++t)
                scalar.gossipTick(rng_b, &chan_b);
            check_a.check(sweep);
            check_b.check(scalar);
        }
        const double frac_sweep =
            totalUtility(prob.utilities, sweep.power()) / opt;
        const double frac_scalar =
            totalUtility(prob.utilities, scalar.power()) / opt;
        EXPECT_NEAR(frac_sweep, frac_scalar, 0.005)
            << "loss grid entry " << gi;
        EXPECT_EQ(check_a.roundsChecked(), sweeps);
        EXPECT_EQ(check_b.roundsChecked(), sweeps);
    }
}

TEST(GossipSweepTest, ChurnRepairsScheduleAndKeepsInvariants)
{
    const Graph g = testTopology();
    const auto prob = test::npbProblem(kNodes, 171.0, kProblemSeed);

    DibaAllocator diba = makeAllocator(g);
    diba.reset(prob);
    Rng rng(kSweepSeed);
    Rng churn(5);

    std::vector<std::size_t> failed;
    for (int s = 0; s < 24; ++s) {
        diba.gossipSweep(rng);
        if (s % 6 == 1) {
            // Fail a random still-active node (never the last few).
            std::size_t i = churn.index(kNodes);
            while (!diba.isActive(i))
                i = (i + 1) % kNodes;
            diba.failNode(i);
            failed.push_back(i);
        }
        if (s % 6 == 3 && !failed.empty()) {
            diba.joinNode(failed.back());
            failed.pop_back();
        }
        ASSERT_TRUE(diba.liveEdgeListExact());

        // The repaired coloring must equal a fresh coloring of the
        // current live overlay (determinism of the greedy rule).
        // Only node churn happens here, so an edge is live iff
        // both endpoints are active.
        const auto &edges = diba.overlayEdges();
        std::vector<std::uint8_t> live(edges.size(), 0);
        for (std::size_t id = 0; id < edges.size(); ++id)
            live[id] = diba.isActive(edges[id].first) &&
                       diba.isActive(edges[id].second);
        EdgeColoring fresh;
        fresh.build(kNodes, edges, &live);
        const EdgeColoring &repaired = diba.edgeColoring();
        for (std::size_t id = 0; id < edges.size(); ++id)
            ASSERT_EQ(repaired.colorOf(id), fresh.colorOf(id))
                << "repair != fresh at sweep " << s << ", edge "
                << id;
    }
}

/** An 8-node ring, 40 rounds in, with the link {0, 1} cut. */
DibaAllocator
ringWithCutLink()
{
    DibaAllocator diba(makeRing(8), DibaAllocator::Config{});
    diba.reset(test::npbProblem(8, 170.0, 3));
    for (int r = 0; r < 40; ++r)
        diba.iterate();
    diba.setEdgeEnabled(0, 1, false);
    return diba;
}

TEST(GossipTickPairDeathTest, PanicsOnACutEdge)
{
    // A cut link carries no gossip: replaying a tick on it would
    // move slack the overlay cannot move.
    DibaAllocator diba = ringWithCutLink();
    EXPECT_DEATH(diba.gossipTickPair(0, 1), "cut or has a dead");
    LossyChannel chan({}, 1);
    EXPECT_DEATH(diba.gossipTickPair(1, 0, &chan),
                 "cut or has a dead");
}

TEST(GossipTickPairDeathTest, PanicsOnANonEdge)
{
    DibaAllocator diba = ringWithCutLink();
    EXPECT_DEATH(diba.gossipTickPair(2, 6), "not an overlay edge");
    LossyChannel chan({}, 1);
    EXPECT_DEATH(diba.gossipTickPair(2, 6, &chan),
                 "not an overlay edge");
}

} // namespace
} // namespace dpc
