#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "alloc/diba.hh"
#include "fault/session.hh"
#include "graph/topologies.hh"
#include "tests/alloc/test_problems.hh"

namespace dpc {
namespace {

TEST(FaultPlanTest, SortedEventsAreTimeOrdered)
{
    FaultPlan plan;
    plan.crashAt(30.0, 1)
        .rejoinAt(90.0, 1)
        .cutLinkAt(10.0, 2, 3)
        .healLinkAt(60.0, 2, 3);
    const auto evs = plan.sortedEvents();
    ASSERT_EQ(evs.size(), 4u);
    for (std::size_t i = 1; i < evs.size(); ++i)
        EXPECT_LE(evs[i - 1].at, evs[i].at);
    EXPECT_EQ(evs.front().kind, FaultKind::LinkCut);
    EXPECT_EQ(evs.back().kind, FaultKind::NodeRejoin);
}

TEST(FaultPlanTest, RandomChurnIsWellFormed)
{
    const double horizon = 200.0;
    const auto plan = FaultPlan::randomChurn(50, 8, 4, horizon, 11);
    std::set<std::size_t> crashed;
    std::size_t crashes = 0, rejoins = 0;
    for (const auto &ev : plan.events()) {
        if (ev.kind == FaultKind::NodeCrash) {
            ++crashes;
            EXPECT_TRUE(crashed.insert(ev.node).second)
                << "node " << ev.node << " crashed twice";
            EXPECT_GE(ev.at, 0.0);
            EXPECT_LE(ev.at, 0.6 * horizon);
        } else {
            ASSERT_EQ(ev.kind, FaultKind::NodeRejoin);
            ++rejoins;
            EXPECT_EQ(crashed.count(ev.node), 1u)
                << "rejoin of a node that never crashed";
            EXPECT_GE(ev.at, 0.7 * horizon);
            EXPECT_LE(ev.at, horizon);
        }
    }
    EXPECT_EQ(crashes, 8u);
    EXPECT_EQ(rejoins, 4u);
}

TEST(FaultPlanTest, RandomChurnIsSeedDeterministic)
{
    const auto a = FaultPlan::randomChurn(40, 5, 3, 100.0, 7);
    const auto b = FaultPlan::randomChurn(40, 5, 3, 100.0, 7);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].at, b.events()[i].at);
        EXPECT_EQ(a.events()[i].node, b.events()[i].node);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    }
}

TEST(FaultSessionTest, AppliesDueEventsAndAdvancesClock)
{
    const auto prob = test::npbProblem(16, 170.0, 61);
    Rng topo_rng(3);
    DibaAllocator diba(makeChordalRing(16, 6, topo_rng));
    diba.reset(prob);
    FaultPlan plan;
    plan.crashAt(0.0, 4).crashAt(2.0, 7);
    FaultSession session(diba, plan);

    session.stepRound(); // t=0: first crash applies
    EXPECT_FALSE(diba.isActive(4));
    EXPECT_TRUE(diba.isActive(7));
    EXPECT_EQ(session.eventsApplied(), 1u);
    EXPECT_DOUBLE_EQ(session.now(), 1.0);

    session.stepRound(); // t=1: nothing due
    EXPECT_TRUE(diba.isActive(7));
    session.stepRound(); // t=2: second crash applies
    EXPECT_FALSE(diba.isActive(7));
    EXPECT_EQ(session.eventsApplied(), 2u);
    EXPECT_EQ(session.checker().roundsChecked(), 3u);
}

TEST(FaultSessionTest, SkipsInvalidEventsInsteadOfPanicking)
{
    const auto prob = test::npbProblem(16, 170.0, 62);
    Rng topo_rng(4);
    DibaAllocator diba(makeChordalRing(16, 6, topo_rng));
    diba.reset(prob);
    FaultPlan plan;
    plan.crashAt(0.0, 5)
        .crashAt(0.0, 5)     // double crash: skipped
        .rejoinAt(0.0, 6)    // rejoin of a live node: skipped
        .cutLinkAt(0.0, 0, 1)
        .cutLinkAt(0.0, 0, 1) // double cut: skipped
        .healLinkAt(0.0, 2, 3); // heal of an intact link: skipped
    FaultSession session(diba, plan);
    session.stepRound();
    EXPECT_EQ(session.eventsApplied(), 2u);
    EXPECT_EQ(session.eventsSkipped(), 4u);
    // Per-kind breakdown: one of each invalid flavor.
    EXPECT_EQ(session.eventsSkipped(FaultKind::NodeCrash), 1u);
    EXPECT_EQ(session.eventsSkipped(FaultKind::NodeRejoin), 1u);
    EXPECT_EQ(session.eventsSkipped(FaultKind::LinkCut), 1u);
    EXPECT_EQ(session.eventsSkipped(FaultKind::LinkHeal), 1u);
    EXPECT_EQ(session.eventsSkipped(FaultKind::MeterGlitch), 0u);
    EXPECT_FALSE(diba.isActive(5));
    EXPECT_FALSE(diba.edgeEnabled(0, 1));
}

TEST(FaultSessionTest, MeterGlitchIsAControlLoopConcern)
{
    const auto prob = test::npbProblem(8, 170.0, 63);
    DibaAllocator diba(makeRing(8));
    diba.reset(prob);
    FaultPlan plan;
    plan.meterGlitchAt(0.0, 2, 0.2, 10.0);
    FaultSession session(diba, plan);
    session.stepRound();
    // Nothing to do at the allocator level; the event is recorded
    // as skipped and the run continues.
    EXPECT_EQ(session.eventsApplied(), 0u);
    EXPECT_EQ(session.eventsSkipped(), 1u);
    EXPECT_EQ(session.eventsSkipped(FaultKind::MeterGlitch), 1u);
}

TEST(FaultSessionTest, RunReportsQuietRoundsOnceSettled)
{
    const auto prob = test::npbProblem(24, 170.0, 64);
    Rng topo_rng(5);
    DibaAllocator diba(makeChordalRing(24, 8, topo_rng));
    diba.reset(prob);
    const FaultPlan plan; // no faults, perfect-equivalent channel
    FaultSession session(diba, plan);
    const std::size_t quiet = session.run(3000);
    EXPECT_GT(quiet, 0u);
    EXPECT_EQ(session.checker().roundsChecked(), 3000u);
}

TEST(FaultSessionTest, LossOnlyPlanIsBitwiseTheLossyChannelRound)
{
    // The recipe bench/fault_storm's loss-only cells use: a
    // FaultSession over an empty plan with an i.i.d. loss config
    // must step exactly like stepWithTransport over a LossyChannel
    // with the same config and seed, round for round, over the
    // bench's 800-round horizon.
    const std::size_t n = 300;
    const auto prob = test::npbProblem(n, 172.0, 97);
    for (const double drop : {0.0, 0.3}) {
        Rng ta(7), tb(7);
        DibaAllocator a(makeChordalRing(n, 30, ta));
        DibaAllocator b(makeChordalRing(n, 30, tb));
        a.reset(prob);
        b.reset(prob);
        LossyChannel::Config loss;
        loss.drop_rate = drop;
        const std::uint64_t seed =
            0x5709a + std::lround(drop * 100.0);
        FaultPlan plan;
        plan.loss(loss).seed(seed);
        FaultSession session(a, plan);
        LossyChannel chan(loss, seed);
        net::LoopbackTransport loopback;
        for (int round = 0; round < 800; ++round) {
            ASSERT_EQ(session.stepRound(),
                      b.stepWithTransport(loopback, &chan))
                << "drop " << drop << ", round " << round;
            ASSERT_EQ(a.power(), b.power())
                << "drop " << drop << ", round " << round;
            ASSERT_EQ(a.estimates(), b.estimates())
                << "drop " << drop << ", round " << round;
        }
        EXPECT_EQ(session.channel().stats().dropped,
                  chan.stats().dropped);
        if (drop > 0.0) {
            EXPECT_GT(chan.stats().dropped, 0u);
        }
    }
}

} // namespace
} // namespace dpc
