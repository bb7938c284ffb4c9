/**
 * @file
 * Allocator-level fault injection: conservation under loss and
 * staleness, churn round trips, link partitions, and the
 * fixed-seed acceptance storm.
 */

#include <gtest/gtest.h>

#include "alloc/diba.hh"
#include "alloc/kkt.hh"
#include "fault/session.hh"
#include "graph/topologies.hh"
#include "metrics/performance.hh"
#include "tests/alloc/test_problems.hh"
#include "util/stats.hh"

namespace dpc {
namespace {

/** Conservation over the active set: sum e == sum p - P. */
void
expectConservation(const DibaAllocator &diba)
{
    double se = 0.0;
    for (std::size_t i = 0; i < diba.estimates().size(); ++i)
        if (diba.isActive(i))
            se += diba.estimates()[i];
    EXPECT_NEAR(se, diba.totalPower() - diba.budget(),
                1e-6 * diba.budget());
}

TEST(FaultInjectionTest, PerfectChannelIsBitwiseIdentical)
{
    const auto prob = test::npbProblem(48, 170.0, 41);
    Rng ta(9), tb(9);
    DibaAllocator a(makeChordalRing(48, 12, ta));
    DibaAllocator b(makeChordalRing(48, 12, tb));
    a.reset(prob);
    b.reset(prob);
    LossyChannel chan({}, 1); // zero config: every pair fresh
    net::LoopbackTransport loopback;
    for (int it = 0; it < 600; ++it) {
        const double ma = a.iterate();
        const double mb = b.iterateShard(loopback, 0, 48, &chan);
        ASSERT_EQ(ma, mb) << "diverged at round " << it;
    }
    EXPECT_EQ(a.power(), b.power());
    EXPECT_EQ(a.estimates(), b.estimates());
}

TEST(FaultInjectionTest, GossipTicksConserveUnderHeavyLoss)
{
    const auto prob = test::npbProblem(32, 170.0, 42);
    Rng topo_rng(11);
    DibaAllocator diba(makeChordalRing(32, 8, topo_rng));
    diba.reset(prob);
    LossyChannel::Config cfg;
    cfg.drop_rate = 0.3;
    LossyChannel chan(cfg, 77);
    Rng rng(5);
    for (int t = 0; t < 10000; ++t) {
        diba.gossipTick(rng, &chan);
        ASSERT_LT(diba.totalPower(), prob.budget)
            << "budget violated at tick " << t;
    }
    expectConservation(diba);
    // The transport really was faulty, and the allocator still
    // landed near the optimum.
    EXPECT_GT(chan.stats().dropped, 2000u);
    const auto opt = solveKkt(prob);
    const double u = totalUtility(prob.utilities, diba.power());
    EXPECT_TRUE(withinFractionOfOptimal(u, opt.utility, 0.97))
        << u << " vs " << opt.utility;
}

TEST(FaultInjectionTest, LossyRoundsConvergeAndConserve)
{
    const auto prob = test::npbProblem(48, 170.0, 43);
    Rng topo_rng(12);
    DibaAllocator diba(makeChordalRing(48, 12, topo_rng));
    diba.reset(prob);
    LossyChannel::Config cfg;
    cfg.drop_rate = 0.2;
    cfg.delay_rate = 0.2;
    cfg.max_lag = 3;
    LossyChannel chan(cfg, 123);
    InvariantChecker checker;
    net::LoopbackTransport loopback;
    for (int it = 0; it < 4000; ++it) {
        diba.stepWithTransport(loopback, &chan);
        checker.check(diba);
    }
    EXPECT_EQ(checker.roundsChecked(), 4000u);
    EXPECT_LT(checker.worstResidual(), 1e-6 * prob.budget);
    EXPECT_GT(chan.stats().dropped, 0u);
    EXPECT_GT(chan.stats().stale, 0u);
    const auto opt = solveKkt(prob);
    const double u = totalUtility(prob.utilities, diba.power());
    EXPECT_TRUE(withinFractionOfOptimal(u, opt.utility, 0.97))
        << u << " vs " << opt.utility;
}

TEST(FaultInjectionTest, FailJoinRoundTripRestoresFixedPoint)
{
    const std::size_t n = 32;
    const auto prob = test::npbProblem(n, 170.0, 44);
    Rng topo_rng(13);
    DibaAllocator diba(makeChordalRing(n, 8, topo_rng));
    diba.reset(prob);
    for (int it = 0; it < 3000; ++it)
        diba.iterate();
    const double u_before =
        totalUtility(prob.utilities, diba.power());

    diba.failNode(9);
    EXPECT_FALSE(diba.isActive(9));
    for (int it = 0; it < 1500; ++it) {
        diba.iterate();
        ASSERT_LT(diba.totalPower(), prob.budget);
    }

    diba.joinNode(9);
    EXPECT_TRUE(diba.isActive(9));
    EXPECT_EQ(diba.numActive(), n);
    // Conservation holds across the event itself, and the node
    // re-enters at its floor.
    expectConservation(diba);
    EXPECT_NEAR(diba.power()[9], prob.utilities[9]->minPower(),
                1e-9);
    for (int it = 0; it < 6000; ++it) {
        diba.iterate();
        ASSERT_LT(diba.totalPower(), prob.budget);
    }
    // The rejoined node ramped back up and the cluster returned to
    // (its barrier approximation of) the original fixed point.
    EXPECT_GT(diba.power()[9],
              prob.utilities[9]->minPower() + 5.0);
    const double u_after =
        totalUtility(prob.utilities, diba.power());
    EXPECT_GT(u_after, 0.995 * u_before);
    expectConservation(diba);
}

TEST(FaultInjectionTest, PartitionKeepsPerPartitionGuarantees)
{
    // A plain ring so two link cuts split the overlay into two
    // arcs: nodes 1..8 and nodes 9..16(,0).
    const std::size_t n = 16;
    const auto prob = test::npbProblem(n, 170.0, 45);
    DibaAllocator diba(makeRing(n));
    diba.reset(prob);
    for (int it = 0; it < 800; ++it)
        diba.iterate();

    diba.setEdgeEnabled(0, 1, false);
    diba.setEdgeEnabled(8, 9, false);
    EXPECT_FALSE(diba.edgeEnabled(0, 1));
    EXPECT_FALSE(diba.edgeEnabled(8, 9));
    EXPECT_EQ(diba.liveEdges().size(), n - 2);

    InvariantChecker checker;
    for (int it = 0; it < 800; ++it) {
        diba.iterate();
        // Strict slack on every node implies each partition (and
        // hence the whole cluster) honours the budget on its own.
        checker.check(diba);
    }
    // Each arc holds strictly negative slack of its own.
    double slack_a = 0.0, slack_b = 0.0;
    for (std::size_t i = 1; i <= 8; ++i)
        slack_a += diba.estimates()[i];
    for (std::size_t i = 9; i < n; ++i)
        slack_b += diba.estimates()[i];
    slack_b += diba.estimates()[0];
    EXPECT_LT(slack_a, 0.0);
    EXPECT_LT(slack_b, 0.0);

    // Heal both links: gossip resumes across the former boundary
    // and the cluster re-converges near the global optimum.
    diba.setEdgeEnabled(0, 1, true);
    diba.setEdgeEnabled(8, 9, true);
    EXPECT_EQ(diba.liveEdges().size(), n);
    for (int it = 0; it < 4000; ++it)
        diba.iterate();
    const auto opt = solveKkt(prob);
    const double u = totalUtility(prob.utilities, diba.power());
    EXPECT_TRUE(withinFractionOfOptimal(u, opt.utility, 0.98))
        << u << " vs " << opt.utility;
}

TEST(FaultInjectionTest, CutEdgeCarriesNoAsyncGossip)
{
    const auto prob = test::npbProblem(8, 170.0, 46);
    DibaAllocator diba(makeRing(8));
    diba.reset(prob);
    diba.setEdgeEnabled(3, 4, false);
    for (const auto &e : diba.liveEdges())
        EXPECT_FALSE(e.first == 3 && e.second == 4);
    Rng rng(21);
    for (int t = 0; t < 2000; ++t)
        diba.gossipTick(rng);
    expectConservation(diba);
    EXPECT_LT(diba.totalPower(), prob.budget);
}

/** The PR's acceptance storm: 1000 nodes, 20% pair loss, 5
 * crashes, 3 rejoins, fixed seed -- the invariant audit must pass
 * on every round and the trajectory must replay bit for bit. */
std::vector<double>
runAcceptanceStorm()
{
    const std::size_t n = 1000;
    const auto prob = test::npbProblem(n, 172.0, 50);
    Rng topo_rng(13);
    DibaAllocator diba(makeChordalRing(n, 200, topo_rng));
    diba.reset(prob);

    FaultPlan plan =
        FaultPlan::randomChurn(n, 5, 3, 380.0, 0xc0ffee);
    LossyChannel::Config loss;
    loss.drop_rate = 0.2;
    plan.loss(loss).seed(0xc0ffee);

    FaultSession session(diba, plan);
    session.run(400);
    EXPECT_EQ(session.checker().roundsChecked(), 400u);
    EXPECT_EQ(session.eventsApplied(), 8u);
    EXPECT_EQ(session.eventsSkipped(), 0u);
    EXPECT_EQ(diba.numActive(), n - 2);
    EXPECT_NEAR(session.channel().lossRate(), 0.2, 0.01);
    EXPECT_LT(diba.totalPower(), prob.budget);
    return diba.power();
}

TEST(FaultInjectionTest, AcceptanceStormIsDeterministic)
{
    const auto first = runAcceptanceStorm();
    const auto second = runAcceptanceStorm();
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        ASSERT_EQ(first[i], second[i])
            << "trajectory diverged at node " << i;
}

} // namespace
} // namespace dpc
