#include <gtest/gtest.h>

#include "alloc/centralized.hh"
#include "alloc/diba.hh"
#include "alloc/watchdog.hh"
#include "fault/invariant_checker.hh"
#include "graph/topologies.hh"
#include "metrics/performance.hh"
#include "tests/alloc/test_problems.hh"

namespace dpc {
namespace {

DibaAllocator
makeDiba(std::size_t n, double watts_per_node, std::uint64_t seed)
{
    Rng topo_rng(seed);
    DibaAllocator diba(makeChordalRing(n, n / 4, topo_rng));
    diba.reset(test::npbProblem(n, watts_per_node, seed));
    return diba;
}

TEST(ConvergenceWatchdogTest, ConvergingRunNeverEscalates)
{
    // At the default (last-resort) window, a healthy run's long
    // annealing plateaus -- where the residual can rise for a
    // hundred rounds before dropping again -- never read as stalls.
    auto diba = makeDiba(24, 170.0, 21);
    ConvergenceWatchdog dog;
    for (int r = 0; r < 300; ++r) {
        const double moved = diba.iterate();
        EXPECT_EQ(dog.observe(diba, moved),
                  ConvergenceWatchdog::Action::None);
    }
    EXPECT_EQ(dog.stats().reheats, 0u);
    EXPECT_EQ(dog.stats().reseeds, 0u);
    EXPECT_EQ(dog.stats().fallbacks, 0u);
    EXPECT_EQ(dog.stage(), 0u);
}

TEST(ConvergenceWatchdogTest, PersistentStallClimbsTheLadder)
{
    auto diba = makeDiba(16, 170.0, 22);
    ConvergenceWatchdog::Config cfg;
    cfg.window = 4;
    ConvergenceWatchdog dog(cfg);
    // Feed a flat residual far above tolerance: every second
    // window (the one with a baseline) reads as a stall.
    std::vector<ConvergenceWatchdog::Action> fired;
    for (int r = 0; r < 10 * 4; ++r) {
        const auto a = dog.observe(diba, 1.0);
        if (a != ConvergenceWatchdog::Action::None)
            fired.push_back(a);
    }
    ASSERT_GE(fired.size(), 3u);
    EXPECT_EQ(fired[0], ConvergenceWatchdog::Action::Reseed);
    EXPECT_EQ(fired[1], ConvergenceWatchdog::Action::Reheat);
    EXPECT_EQ(fired[2], ConvergenceWatchdog::Action::Fallback);
    // The ladder saturates at fallback instead of overflowing.
    for (std::size_t i = 3; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], ConvergenceWatchdog::Action::Fallback);
    EXPECT_EQ(dog.stage(), 3u);
}

TEST(ConvergenceWatchdogTest, FirstRungReseedsEveryLiveComponent)
{
    // Failures split a settled ring in two.  The first rung seeds
    // each live component at the water level of the budget its
    // books hold: every component keeps sum e = sum p - held, and
    // the survivors land within 1% of their own optimum.
    const std::size_t n = 200;
    const auto prob = test::npbProblem(n, 170.0, 26);
    DibaAllocator diba(makeRing(n));
    diba.reset(prob);
    Rng rng(1);
    for (int r = 0; r < 20000 && !diba.converged(); ++r)
        diba.step(rng);
    ASSERT_TRUE(diba.converged());
    diba.failNode(30);
    diba.failNode(120);
    std::vector<std::uint32_t> label;
    const std::size_t k = diba.liveComponents(label);
    ASSERT_EQ(k, 2u);
    const std::vector<double> held = diba.heldBudgets(label, k);

    ConvergenceWatchdog::Config cfg;
    cfg.window = 4;
    ConvergenceWatchdog dog(cfg);
    auto first = ConvergenceWatchdog::Action::None;
    for (int r = 0; r < 40 && first == ConvergenceWatchdog::Action::None;
         ++r)
        first = dog.observe(diba, 1.0);
    ASSERT_EQ(first, ConvergenceWatchdog::Action::Reseed);
    InvariantChecker checker;
    checker.check(diba);

    double got = 0.0, best = 0.0;
    for (std::uint32_t j = 0; j < k; ++j) {
        SCOPED_TRACE(j);
        AllocationProblem sub;
        std::vector<double> caps;
        double sp = 0.0, se = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!diba.isActive(i) || label[i] != j)
                continue;
            sub.utilities.push_back(diba.utilities()[i]);
            caps.push_back(diba.power()[i]);
            sp += diba.power()[i];
            se += diba.estimates()[i];
            EXPECT_EQ(diba.barrierWeight(i), diba.config().eta)
                << "node " << i << " was not seeded";
        }
        EXPECT_NEAR(se, sp - held[j], 1e-9 * held[j]);
        sub.budget = held[j];
        got += totalUtility(sub.utilities, caps);
        best += totalUtility(sub.utilities,
                             CentralizedAllocator().allocate(sub).power);
    }
    EXPECT_GE(got, 0.99 * best);
}

TEST(ConvergenceWatchdogTest, DisturbanceResetsTheLadder)
{
    auto diba = makeDiba(16, 170.0, 23);
    ConvergenceWatchdog::Config cfg;
    cfg.window = 4;
    ConvergenceWatchdog dog(cfg);
    for (int r = 0; r < 8; ++r)
        dog.observe(diba, 1.0);
    EXPECT_EQ(dog.stage(), 1u);
    dog.noteDisturbance();
    EXPECT_EQ(dog.stage(), 0u);
    // Post-disturbance, the first window rebuilds its baseline
    // before any stall can fire again.
    for (int r = 0; r < 4; ++r)
        EXPECT_EQ(dog.observe(diba, 1.0),
                  ConvergenceWatchdog::Action::None);
}

TEST(ConvergenceWatchdogTest, FallbackPreservesInvariantsAndQuality)
{
    const std::size_t n = 32;
    const auto prob = test::npbProblem(n, 170.0, 24);
    Rng topo_rng(24);
    DibaAllocator diba(makeChordalRing(n, 8, topo_rng));
    diba.reset(prob);
    for (int r = 0; r < 10; ++r)
        diba.iterate(); // leave the state mid-flight

    ConvergenceWatchdog::Config cfg;
    cfg.window = 4;
    ConvergenceWatchdog dog(cfg);
    // Force the ladder straight through to the fallback.
    std::size_t guard = 0;
    while (dog.stats().fallbacks == 0 && guard++ < 100)
        dog.observe(diba, 5.0);
    ASSERT_EQ(dog.stats().fallbacks, 1u);

    InvariantChecker checker;
    checker.check(diba); // conservation + strict slack survived

    // The adopted caps are near the centralized optimum (the
    // fallback holds back fallback_margin of the headroom).
    const double got = totalUtility(prob.utilities, diba.power());
    const auto opt = CentralizedAllocator().allocate(prob);
    const double best = totalUtility(prob.utilities, opt.power);
    EXPECT_GE(got, 0.95 * best);
    EXPECT_LT(diba.totalPower(), prob.budget);
}

TEST(ConvergenceWatchdogTest, HierarchicalFallbackAlsoHolds)
{
    const std::size_t n = 48;
    const auto prob = test::npbProblem(n, 170.0, 25);
    Rng topo_rng(25);
    DibaAllocator diba(makeChordalRing(n, 12, topo_rng));
    diba.reset(prob);
    for (int r = 0; r < 5; ++r)
        diba.iterate();

    ConvergenceWatchdog::Config cfg;
    cfg.window = 4;
    cfg.fallback = ConvergenceWatchdog::FallbackScheme::Hierarchical;
    cfg.hierarchical_rack = 16;
    ConvergenceWatchdog dog(cfg);
    std::size_t guard = 0;
    while (dog.stats().fallbacks == 0 && guard++ < 100)
        dog.observe(diba, 5.0);
    ASSERT_EQ(dog.stats().fallbacks, 1u);
    InvariantChecker checker;
    checker.check(diba);
    EXPECT_LT(diba.totalPower(), prob.budget);
}

TEST(ConvergenceWatchdogTest, ConfigValidationPanics)
{
    ConvergenceWatchdog::Config short_window;
    short_window.window = 2;
    EXPECT_DEATH(ConvergenceWatchdog dog(short_window), "window");

    ConvergenceWatchdog::Config bad_margin;
    bad_margin.fallback_margin = 1.0;
    EXPECT_DEATH(ConvergenceWatchdog dog(bad_margin), "margin");
}

} // namespace
} // namespace dpc
