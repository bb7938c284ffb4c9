#include <gtest/gtest.h>

#include <cmath>

#include "alloc/diba.hh"
#include "alloc/kkt.hh"
#include "graph/topologies.hh"
#include "metrics/performance.hh"
#include "tests/alloc/test_problems.hh"
#include "util/stats.hh"

namespace dpc {
namespace {

/**
 * A utility of the opposite workload class: saturating nodes get a
 * compute-hungry curve and vice versa, guaranteeing the workload
 * change actually shifts the node's power demand.
 */
UtilityPtr
contrastingUtility(const UtilityFunction &u)
{
    const bool saturating =
        u.value(u.minPower()) / u.peakValue() > 0.55;
    return std::make_shared<QuadraticUtility>(
        saturating
            ? QuadraticUtility::fromShape(0.18, 0.03, u.minPower(),
                                          u.maxPower())
            : QuadraticUtility::fromShape(0.88, 1.0, u.minPower(),
                                          u.maxPower()));
}

/** Check the conservation invariant sum(e) == sum(p) - P. */
void
expectInvariant(const DibaAllocator &diba)
{
    const double se = sum(diba.estimates());
    const double sp = diba.totalPower();
    EXPECT_NEAR(se, sp - diba.budget(), 1e-6 * diba.budget());
}

/** Same invariant restricted to surviving nodes. */
void
expectInvariantOverActive(const DibaAllocator &diba)
{
    double se = 0.0;
    for (std::size_t i = 0; i < diba.estimates().size(); ++i)
        if (diba.isActive(i))
            se += diba.estimates()[i];
    EXPECT_NEAR(se, diba.totalPower() - diba.budget(),
                1e-6 * diba.budget());
}

TEST(DibaTest, RequiresConnectedTopology)
{
    Graph::Builder g(4);
    g.addEdge(0, 1);
    EXPECT_DEATH(DibaAllocator diba(g.build()), "connected");
}

TEST(DibaTest, ResetEstablishesInvariants)
{
    const auto prob = test::npbProblem(16, 170.0, 1);
    DibaAllocator diba(makeRing(16));
    diba.reset(prob);
    expectInvariant(diba);
    for (double e : diba.estimates())
        EXPECT_LT(e, 0.0);
    EXPECT_LT(diba.totalPower(), prob.budget);
}

TEST(DibaTest, BudgetNeverViolatedDuringIterations)
{
    const auto prob = test::npbProblem(32, 168.0, 2);
    DibaAllocator diba(makeRing(32));
    diba.reset(prob);
    for (int it = 0; it < 500; ++it) {
        diba.iterate();
        EXPECT_LT(diba.totalPower(), prob.budget)
            << "violated at iteration " << it;
    }
    expectInvariant(diba);
}

TEST(DibaTest, ConvergesTo99PercentOfOracleOnRing)
{
    const auto prob = test::npbProblem(100, 170.0, 3);
    const auto opt = solveKkt(prob);
    DibaAllocator diba(makeRing(100));
    diba.reset(prob);
    // The N=100 ring is the slowest-mixing overlay in the suite
    // (Fig. 4.10); give it its full convergence horizon.
    for (int it = 0; it < 8000; ++it)
        diba.iterate();
    const double u = totalUtility(prob.utilities, diba.power());
    EXPECT_TRUE(withinFractionOfOptimal(u, opt.utility, 0.99))
        << "DiBA " << u << " vs optimal " << opt.utility;
}

TEST(DibaTest, AllocateInterfaceConverges)
{
    const auto prob = test::npbProblem(50, 172.0, 4);
    DibaAllocator diba(makeRing(50));
    const auto res = diba.allocate(prob);
    EXPECT_TRUE(res.converged);
    EXPECT_LT(res.totalPower(), prob.budget);
    const auto opt = solveKkt(prob);
    EXPECT_TRUE(
        withinFractionOfOptimal(res.utility, opt.utility, 0.985));
}

TEST(DibaTest, BoxesAlwaysRespected)
{
    const auto prob = test::npbProblem(40, 150.0, 5);
    DibaAllocator diba(makeRing(40));
    diba.reset(prob);
    for (int it = 0; it < 300; ++it) {
        diba.iterate();
        const auto &p = diba.power();
        for (std::size_t i = 0; i < p.size(); ++i) {
            EXPECT_GE(p[i],
                      prob.utilities[i]->minPower() - 1e-9);
            EXPECT_LE(p[i],
                      prob.utilities[i]->maxPower() + 1e-9);
        }
    }
}

TEST(DibaTest, BudgetDropShedsImmediately)
{
    const auto prob = test::npbProblem(64, 185.0, 6);
    DibaAllocator diba(makeRing(64));
    diba.reset(prob);
    for (int it = 0; it < 1000; ++it)
        diba.iterate();
    // Drop the budget by ~10%; the announcement plus local shedding
    // must restore feasibility without any further iterations.
    const double new_budget = prob.budget * 0.9;
    diba.setBudget(new_budget);
    EXPECT_LE(diba.totalPower(), new_budget);
    expectInvariant(diba);
    // And the algorithm keeps the hard guarantee afterwards.
    for (int it = 0; it < 400; ++it) {
        diba.iterate();
        EXPECT_LT(diba.totalPower(), new_budget);
    }
}

TEST(DibaTest, BudgetRaiseIsExploited)
{
    const auto prob = test::npbProblem(64, 160.0, 7);
    DibaAllocator diba(makeRing(64));
    diba.reset(prob);
    for (int it = 0; it < 1000; ++it)
        diba.iterate();
    const double before = diba.totalPower();
    diba.setBudget(prob.budget * 1.1);
    for (int it = 0; it < 1500; ++it)
        diba.iterate();
    EXPECT_GT(diba.totalPower(), before + 1.0);
    EXPECT_LT(diba.totalPower(), prob.budget * 1.1);
    expectInvariant(diba);
}

TEST(DibaTest, UtilityChangeKeepsInvariant)
{
    const auto prob = test::npbProblem(32, 170.0, 8);
    DibaAllocator diba(makeRing(32));
    diba.reset(prob);
    for (int it = 0; it < 200; ++it)
        diba.iterate();
    diba.setUtility(5, std::make_shared<QuadraticUtility>(
                           QuadraticUtility::fromShape(
                               0.9, 0.95, 120.0, 220.0)));
    expectInvariant(diba);
    for (int it = 0; it < 200; ++it)
        diba.iterate();
    EXPECT_LT(diba.totalPower(), prob.budget);
}

TEST(DibaTest, PerturbationDecaysWithRingDistance)
{
    // Fig. 4.9: after a single node's utility changes, the power
    // adjustment is largest near the perturbed node.
    const std::size_t n = 100;
    const auto prob = test::npbProblem(n, 172.0, 9);
    DibaAllocator diba(makeRing(n));
    diba.reset(prob);
    for (int it = 0; it < 4000; ++it)
        diba.iterate();
    const auto before = diba.power();
    diba.setUtility(50, contrastingUtility(*prob.utilities[50]));
    for (int it = 0; it < 4000; ++it)
        diba.iterate();
    const auto after = diba.power();
    std::vector<double> near, far;
    for (std::size_t i = 0; i < n; ++i) {
        const auto dist = std::min<std::size_t>(
            i > 50 ? i - 50 : 50 - i, n - (i > 50 ? i - 50 : 50 - i));
        const double delta = std::fabs(after[i] - before[i]);
        if (dist >= 1 && dist <= 5)
            near.push_back(delta);
        else if (dist >= 30)
            far.push_back(delta);
    }
    // The released/claimed power is absorbed mostly by the
    // perturbed node's neighbourhood (box-clamped servers anywhere
    // correctly do not move, so compare mean absorption).
    EXPECT_GT(mean(near), 1.0);
    EXPECT_GT(mean(near), 2.0 * mean(far));
}

TEST(DibaTest, MessagesPerRoundMatchesTopology)
{
    DibaAllocator ring(makeRing(10));
    EXPECT_EQ(ring.messagesPerRound(), 20u);
    DibaAllocator full(makeComplete(5));
    EXPECT_EQ(full.messagesPerRound(), 20u);
}

TEST(DibaAsyncTest, GossipTickPreservesInvariants)
{
    const auto prob = test::npbProblem(32, 170.0, 31);
    DibaAllocator diba(makeRing(32));
    diba.reset(prob);
    Rng rng(1);
    for (int t = 0; t < 2000; ++t) {
        diba.gossipTick(rng);
        EXPECT_LT(diba.totalPower(), prob.budget);
    }
    expectInvariant(diba);
    for (double e : diba.estimates())
        EXPECT_LT(e, 0.0);
}

TEST(DibaAsyncTest, GossipConvergesNearOracle)
{
    const std::size_t n = 48;
    const auto prob = test::npbProblem(n, 170.0, 32);
    const auto opt = solveKkt(prob);
    Rng topo_rng(2);
    DibaAllocator diba(makeChordalRing(n, 12, topo_rng));
    diba.reset(prob);
    Rng rng(3);
    // ~2500 synchronous-round equivalents of asynchronous work.
    for (std::size_t t = 0; t < 2500 * n; ++t)
        diba.gossipTick(rng);
    const double u = totalUtility(prob.utilities, diba.power());
    EXPECT_TRUE(withinFractionOfOptimal(u, opt.utility, 0.98))
        << u << " vs " << opt.utility;
}

TEST(DibaFailureTest, FailedNodeReleasesItsPower)
{
    const std::size_t n = 32;
    const auto prob = test::npbProblem(n, 170.0, 33);
    Rng topo_rng(4);
    DibaAllocator diba(makeChordalRing(n, 8, topo_rng));
    diba.reset(prob);
    for (int it = 0; it < 1500; ++it)
        diba.iterate();
    const double before = diba.totalPower();
    const double p_failed = diba.power()[10];
    diba.failNode(10);
    EXPECT_FALSE(diba.isActive(10));
    EXPECT_EQ(diba.numActive(), n - 1);
    // The failed node's draw is gone instantly.
    EXPECT_NEAR(diba.totalPower(), before - p_failed, 1e-9);
    // Its released power is reusable: survivors climb while the
    // budget guarantee holds throughout.
    for (int it = 0; it < 2000; ++it) {
        diba.iterate();
        EXPECT_LT(diba.totalPower(), prob.budget);
    }
    EXPECT_GT(diba.totalPower(), before - p_failed + 1.0);
}

TEST(DibaFailureTest, SurvivorsReoptimizeNearReducedOracle)
{
    const std::size_t n = 48;
    const auto prob = test::npbProblem(n, 168.0, 34);
    Rng topo_rng(5);
    DibaAllocator diba(makeChordalRing(n, 16, topo_rng));
    diba.reset(prob);
    for (int it = 0; it < 1500; ++it)
        diba.iterate();
    diba.failNode(7);
    diba.failNode(23);
    for (int it = 0; it < 4000; ++it)
        diba.iterate();

    // Oracle over the survivors at the full budget.
    AllocationProblem reduced;
    std::vector<double> live_power;
    for (std::size_t i = 0; i < n; ++i) {
        if (diba.isActive(i)) {
            reduced.utilities.push_back(prob.utilities[i]);
            live_power.push_back(diba.power()[i]);
        }
    }
    reduced.budget = prob.budget;
    const auto opt = solveKkt(reduced);
    const double u = totalUtility(reduced.utilities, live_power);
    EXPECT_TRUE(withinFractionOfOptimal(u, opt.utility, 0.98))
        << u << " vs " << opt.utility;
}

TEST(DibaFailureTest, DisconnectionKeepsBudgetGuarantee)
{
    const auto prob = test::npbProblem(8, 170.0, 35);
    DibaAllocator diba(makeRing(8)); // no chords: ring can split
    diba.reset(prob);
    for (int it = 0; it < 500; ++it)
        diba.iterate();
    diba.failNode(2);
    diba.failNode(4); // splits the survivors into two arcs
    for (int it = 0; it < 500; ++it) {
        diba.iterate();
        EXPECT_LT(diba.totalPower(), prob.budget);
    }
    // Per-partition conservation still implies the global one.
    double se = 0.0;
    for (std::size_t i = 0; i < 8; ++i)
        if (diba.isActive(i))
            se += diba.estimates()[i];
    EXPECT_NEAR(se, diba.totalPower() - diba.budget(),
                1e-6 * diba.budget());
}

TEST(DibaFailureTest, GossipSkipsDeadNeighbours)
{
    const auto prob = test::npbProblem(16, 170.0, 36);
    Rng topo_rng(6);
    DibaAllocator diba(makeChordalRing(16, 6, topo_rng));
    diba.reset(prob);
    diba.failNode(3);
    Rng rng(7);
    const auto p3 = diba.power()[3];
    for (int t = 0; t < 500; ++t)
        diba.gossipTick(rng);
    // The failed node never moves again.
    EXPECT_EQ(diba.power()[3], p3);
    expectInvariantOverActive(diba);
}

/** Topology sweep: DiBA converges on any connected overlay. */
class DibaTopologySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(DibaTopologySweep, ConvergesNearOracle)
{
    const std::size_t n = 48;
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    Graph topo;
    switch (GetParam() % 4) {
      case 0:
        topo = makeRing(n);
        break;
      case 1:
        topo = makeChordalRing(n, 10, rng);
        break;
      case 2:
        topo = makeConnectedErdosRenyi(n, 120, rng);
        break;
      default:
        topo = makeComplete(n);
        break;
    }
    const auto prob =
        test::npbProblem(n, 168.0,
                         static_cast<std::uint64_t>(GetParam()));
    const auto opt = solveKkt(prob);
    DibaAllocator diba(std::move(topo));
    diba.reset(prob);
    for (int it = 0; it < 2500; ++it)
        diba.iterate();
    const double u = totalUtility(prob.utilities, diba.power());
    EXPECT_TRUE(withinFractionOfOptimal(u, opt.utility, 0.985));
    EXPECT_LT(diba.totalPower(), prob.budget);
}

INSTANTIATE_TEST_SUITE_P(Topologies, DibaTopologySweep,
                         ::testing::Range(0, 8));

/** Budget sweep mirrors Fig. 4.3's x-axis. */
class DibaBudgetSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(DibaBudgetSweep, FeasibleAndNearOptimal)
{
    const auto prob = test::npbProblem(64, GetParam(), 21);
    const auto opt = solveKkt(prob);
    DibaAllocator diba(makeRing(64));
    diba.reset(prob);
    for (int it = 0; it < 2500; ++it)
        diba.iterate();
    EXPECT_LT(diba.totalPower(), prob.budget);
    const double u = totalUtility(prob.utilities, diba.power());
    EXPECT_TRUE(withinFractionOfOptimal(u, opt.utility, 0.98))
        << "budget/node " << GetParam() << ": " << u << " vs "
        << opt.utility;
}

INSTANTIATE_TEST_SUITE_P(Budgets, DibaBudgetSweep,
                         ::testing::Values(166.0, 170.0, 174.0,
                                           178.0, 182.0, 186.0));

} // namespace
} // namespace dpc
