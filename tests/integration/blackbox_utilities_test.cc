#include <gtest/gtest.h>

#include "alloc/diba.hh"
#include "alloc/kkt.hh"
#include "alloc/primal_dual.hh"
#include "graph/topologies.hh"
#include "metrics/performance.hh"
#include "util/stats.hh"
#include "workload/benchmarks.hh"

namespace dpc {
namespace {

/**
 * The centralized allocators treat utilities as black boxes (value
 * / derivative / bestResponse only).  These tests drive them
 * through PiecewiseLinearUtility -- raw measured samples with
 * kinks, no analytic quadratic structure -- exercising the generic
 * bisection best response.  DiBA takes the paper's concave
 * quadratics only and refuses these utilities.
 */
AllocationProblem
pwlProblem(std::size_t n, double wpn, std::uint64_t seed)
{
    Rng rng(seed);
    AllocationProblem prob;
    prob.utilities.reserve(n);
    const auto &suite = npbHpccBenchmarks();
    for (std::size_t i = 0; i < n; ++i) {
        const auto &b = rng.choice(suite);
        std::vector<double> ps, ts;
        // Noiseless samples keep the interpolant concave.
        b.sampleCurve(9, rng, 0.0, ps, ts);
        prob.utilities.push_back(
            std::make_shared<PiecewiseLinearUtility>(
                std::move(ps), std::move(ts)));
    }
    prob.budget = wpn * static_cast<double>(n);
    return prob;
}

TEST(BlackboxUtilitiesTest, KktHandlesPiecewiseLinear)
{
    const auto prob = pwlProblem(40, 170.0, 1);
    const auto res = solveKkt(prob);
    EXPECT_LE(res.totalPower(), prob.budget + 1e-6);
    // Spot-check optimality against perturbed allocations: moving
    // power between any pair cannot improve the utility.
    for (std::size_t i = 0; i < 6; ++i) {
        for (std::size_t j = 6; j < 12; ++j) {
            auto p = res.power;
            const double d = 2.0;
            p[i] = prob.utilities[i]->clampPower(p[i] + d);
            p[j] = prob.utilities[j]->clampPower(p[j] - d);
            if (sum(p) > prob.budget)
                continue;
            // Piecewise-linear utilities are not strictly
            // concave: on flat-slope segments the water-filling
            // price leaves a bounded indifference gap (one
            // segment's worth), so allow a 0.2% slack.
            EXPECT_LE(totalUtility(prob.utilities, p),
                      res.utility * 1.002);
        }
    }
}

TEST(BlackboxUtilitiesTest, PrimalDualHandlesPiecewiseLinear)
{
    const auto prob = pwlProblem(60, 168.0, 2);
    const auto opt = solveKkt(prob);
    PrimalDualAllocator pd;
    const auto res = pd.allocate(prob);
    EXPECT_LE(res.totalPower(), prob.budget + 1e-6);
    EXPECT_TRUE(
        withinFractionOfOptimal(res.utility, opt.utility, 0.99));
}

TEST(BlackboxUtilitiesTest, DibaRefusesPiecewiseLinear)
{
    const auto prob = pwlProblem(48, 170.0, 3);
    Rng topo_rng(4);
    const Graph g = makeChordalRing(48, 12, topo_rng);
    EXPECT_DEATH(
        {
            DibaAllocator diba(g);
            diba.reset(prob);
        },
        "node 0's utility is not a QuadraticUtility");
}

} // namespace
} // namespace dpc
