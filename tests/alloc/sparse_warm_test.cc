/**
 * @file
 * Pins the two convergence-aware engine features against their
 * contracts: the active-set (frontier) engine must degenerate to
 * the dense sweep bitwise at threshold zero, and warmStart() must
 * reconverge from a budget step in a small fraction of a cold
 * solve while landing on an allocation of the same quality.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "alloc/diba.hh"
#include "alloc/kkt.hh"
#include "graph/topologies.hh"
#include "tests/alloc/test_problems.hh"
#include "metrics/performance.hh"
#include "util/rng.hh"

using namespace dpc;

namespace {

std::size_t
roundsToConverge(DibaAllocator &d, std::uint64_t seed)
{
    Rng rng(seed);
    std::size_t r = 0;
    while (!d.converged() && r < 200000) {
        d.step(rng);
        ++r;
    }
    return r;
}

} // namespace

TEST(SparseEngineTest, ZeroThresholdIsBitwiseIdenticalToDense)
{
    const std::size_t n = 192;
    const auto prob = test::npbProblem(n, 172.0, 11);
    Rng topo_rng(5);
    const Graph graphs[] = {makeRing(n),
                            makeChordalRing(n, 12, topo_rng)};
    for (const Graph &g : graphs) {
        DibaAllocator::Config dense_cfg; // active_threshold = -1
        DibaAllocator::Config sparse_cfg;
        sparse_cfg.active_threshold = 0.0;
        DibaAllocator dense(g, dense_cfg);
        DibaAllocator sparse(g, sparse_cfg);
        dense.reset(prob);
        sparse.reset(prob);
        ASSERT_TRUE(sparse.sparseEngineActive());
        for (int round = 0; round < 600; ++round) {
            const double md = dense.iterate();
            const double ms = sparse.iterate();
            ASSERT_EQ(md, ms) << "max |dp| diverged at round "
                              << round;
            ASSERT_EQ(dense.power(), sparse.power())
                << "power diverged at round " << round;
            ASSERT_EQ(dense.estimates(), sparse.estimates())
                << "estimates diverged at round " << round;
        }
    }
}

TEST(SparseEngineTest, PositiveThresholdQuiescesTheFrontier)
{
    const std::size_t n = 256;
    const auto prob = test::npbProblem(n, 172.0, 13);
    DibaAllocator::Config cfg;
    cfg.active_threshold = 0.25 * cfg.tolerance;
    DibaAllocator diba(makeRing(n), cfg);
    diba.reset(prob);
    ASSERT_TRUE(diba.sparseEngineActive());
    (void)roundsToConverge(diba, 3);
    // Drain the sub-tolerance residual tail; the frontier must
    // eventually empty and stay empty, at which point a round
    // touches no node at all.
    std::size_t r = 0;
    while (diba.frontierHotCount() > 0 && r < 200000) {
        diba.iterate();
        ++r;
    }
    ASSERT_EQ(diba.frontierHotCount(), 0u)
        << "frontier never drained";
    const auto p_before = diba.power();
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(diba.iterate(), 0.0);
    EXPECT_EQ(p_before, diba.power());
    // A control event reheats it.
    diba.setBudget(diba.problem().budget * 1.01);
    EXPECT_EQ(diba.frontierHotCount(), n);
}

TEST(WarmStartTest, BudgetStepReconvergesInFractionOfColdSolve)
{
    // Against the paper's uniform cold solve (the seeded one
    // converges in the confirmation rounds too).
    const std::size_t n = 800;
    const auto prob = test::npbProblem(n, 172.0, 23);
    const Graph g = makeRing(n);
    DibaAllocator::Config cfg;
    cfg.seed_cold_start = false;
    for (const double frac : {-0.20, 0.20}) {
        auto shifted = prob;
        shifted.budget += frac * prob.budget;

        DibaAllocator cold(g, cfg);
        cold.reset(shifted);
        const std::size_t cold_rounds = roundsToConverge(cold, 3);
        ASSERT_TRUE(cold.converged());

        DibaAllocator warm(g, cfg);
        warm.allocate(prob);
        warm.warmStart(warm.result(), frac * prob.budget);
        const std::size_t warm_rounds = roundsToConverge(warm, 3);
        ASSERT_TRUE(warm.converged());

        EXPECT_LE(warm_rounds, cold_rounds / 4)
            << "budget step " << frac << ": warm " << warm_rounds
            << " rounds vs cold " << cold_rounds;
    }
}

TEST(WarmStartTest, ReconvergedAllocationMatchesColdQuality)
{
    const std::size_t n = 400;
    const auto prob = test::npbProblem(n, 172.0, 31);
    const Graph g = makeRing(n);
    for (const double frac : {-0.20, 0.20}) {
        auto shifted = prob;
        shifted.budget += frac * prob.budget;
        DibaAllocator warm(g, DibaAllocator::Config{});
        warm.allocate(prob);
        warm.warmStart(warm.result(), frac * prob.budget);
        (void)roundsToConverge(warm, 7);
        ASSERT_TRUE(warm.converged());

        // Cap safety and the invariant, exactly as after a cold
        // solve.
        EXPECT_LT(warm.totalPower(), shifted.budget);
        double se = 0.0;
        for (const double e : warm.estimates()) {
            EXPECT_LT(e, 0.0);
            se += e;
        }
        EXPECT_NEAR(se, warm.totalPower() - shifted.budget,
                    1e-6 * shifted.budget);

        // And the utility must be near the centralized optimum of
        // the shifted problem (the same bar the cold solver is
        // held to elsewhere).
        const auto opt = solveKkt(shifted);
        const double uf =
            totalUtility(shifted.utilities, warm.power()) /
            opt.utility;
        EXPECT_GT(uf, 0.985) << "budget step " << frac;
    }
}

TEST(WarmStartTest, ZeroDeltaKeepsTheConvergedAllocation)
{
    const std::size_t n = 200;
    const auto prob = test::npbProblem(n, 172.0, 47);
    DibaAllocator diba(makeRing(n), DibaAllocator::Config{});
    diba.allocate(prob);
    const auto p0 = diba.power();
    const auto e0 = diba.estimates();
    diba.warmStart(diba.result(), 0.0);
    // The state-continuous zero-delta path keeps p and e exactly.
    EXPECT_EQ(p0, diba.power());
    EXPECT_EQ(e0, diba.estimates());
    EXPECT_EQ(diba.iterations(), 0u);
}
