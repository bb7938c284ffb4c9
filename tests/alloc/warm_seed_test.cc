/**
 * @file
 * Pins the barrier-equilibrium seeds: the sort-free Newton search
 * behind the seeded cold start (reset()), warmStart(),
 * reseedEquilibrium() and the component seeds of recovery.  Each
 * must land where a bisection of the same equation lands, hold
 * every interior marginal at eta/(-e), refuse exactly where the
 * bisection does, keep sum(e) = sum(p) - P when it seeds a cluster
 * with linear utilities or is refused at the power floor, and
 * follow utility swaps (setUtility()).  A non-quadratic utility is
 * refused outright.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "alloc/diba.hh"
#include "graph/topologies.hh"
#include "model/utility.hh"
#include "tests/alloc/test_problems.hh"
#include "util/rng.hh"

using namespace dpc;

namespace {

/** A seed: the water level, the caps (original ids) and the
 * uniform estimate, or ok == false for a refusal. */
struct Seed
{
    bool ok = false;
    double lambda = 0.0;
    std::vector<double> p;
    double e0 = 0.0;
};

/**
 * Reference seed: bisection of f(lambda) = sum_i clamp((lambda -
 * b_i)/(2 c_i)) - P + n eta/lambda, strictly decreasing in lambda.
 * It brackets the root by doubling and halves the bracket down to
 * adjacent doubles, then takes the bracket's upper end (f <= 0):
 * on a linear node's step that is the step itself, the side that
 * keeps e0 < 0.
 */
Seed
bisectionSeed(const std::vector<UtilityPtr> &us, double budget,
              double eta)
{
    const std::size_t n = us.size();
    std::vector<double> b(n), c(n), lo(n), hi(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &q = dynamic_cast<const QuadraticUtility &>(*us[i]);
        b[i] = q.coeffB();
        c[i] = q.coeffC();
        lo[i] = q.minPower();
        hi[i] = q.maxPower();
    }
    const auto cap = [&](std::size_t i, double lambda) {
        const double p = c[i] < 0.0 ? (lambda - b[i]) / (2.0 * c[i])
                                    : (lambda < b[i] ? hi[i] : lo[i]);
        return std::clamp(p, lo[i], hi[i]);
    };
    const auto f = [&](double lambda) {
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            total += cap(i, lambda);
        return total - budget + static_cast<double>(n) * eta / lambda;
    };
    Seed s;
    double lam_lo = 1e-12;
    double lam_hi = 1.0;
    int guard = 0;
    while (f(lam_hi) > 0.0 && guard++ < 128)
        lam_hi *= 2.0;
    if (guard >= 128)
        return s;
    for (int it = 0; it < 200; ++it) {
        const double mid = 0.5 * (lam_lo + lam_hi);
        if (mid == lam_lo || mid == lam_hi)
            break;
        (f(mid) > 0.0 ? lam_lo : lam_hi) = mid;
    }
    s.lambda = lam_hi;
    s.p.resize(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        s.p[i] = cap(i, s.lambda);
        total += s.p[i];
    }
    s.e0 = (total - budget) / static_cast<double>(n);
    s.ok = s.e0 < 0.0;
    return s;
}

UtilityPtr
shape(double r0, double kappa, double lo, double hi, double scale)
{
    return std::make_shared<QuadraticUtility>(
        QuadraticUtility::fromShape(r0, kappa, lo, hi, scale));
}

/** Random cluster mixing curved quadratics with linear ones
 * (kappa = 0, so c = 0: a one-step demand curve). */
std::vector<UtilityPtr>
mixedUtilities(std::size_t n, Rng &rng)
{
    std::vector<UtilityPtr> us;
    for (std::size_t i = 0; i < n; ++i) {
        const double lo = rng.uniform(60.0, 120.0);
        const double hi = lo + rng.uniform(40.0, 140.0);
        const double kappa =
            rng.uniform() < 0.4 ? 0.0 : rng.uniform(0.2, 1.0);
        us.push_back(shape(rng.uniform(0.2, 0.9), kappa, lo, hi,
                           rng.uniform(0.5, 2.0)));
    }
    return us;
}

double
minTotal(const std::vector<UtilityPtr> &us)
{
    double s = 0.0;
    for (const UtilityPtr &u : us)
        s += u->minPower();
    return s;
}

double
maxTotal(const std::vector<UtilityPtr> &us)
{
    double s = 0.0;
    for (const UtilityPtr &u : us)
        s += u->maxPower();
    return s;
}

/** The two ways a cluster is seeded at a budget: a budget step
 * re-seeded through reseedEquilibrium(), or a cold reset() at that
 * budget. */
enum class SeedPath
{
    Reseed,
    Reset,
};

/**
 * Seed `d` at `budget` through `path` and hold it to the
 * bisection: the same verdict, caps within 1e-9 W, a uniform
 * estimate, and every interior marginal at the water level.  The
 * water level is eta/(-e) unless the root sits on a linear node's
 * step, where the step is taken and e falls below -eta/lambda.
 * reset() requires a budget above the power floor, so the Reset
 * path skips the budgets only the Reseed path can refuse.
 */
void
expectSeedMatchesBisection(DibaAllocator &d, double budget,
                           const std::string &what,
                           SeedPath path = SeedPath::Reseed)
{
    SCOPED_TRACE(what + (path == SeedPath::Reset ? " (reset)" : ""));
    const std::vector<UtilityPtr> &us = d.utilities();
    const double eta = d.config().eta;
    const Seed ref = bisectionSeed(us, budget, eta);
    bool ok = false;
    if (path == SeedPath::Reseed) {
        d.setBudget(budget);
        ok = d.reseedEquilibrium();
    } else {
        AllocationProblem prob = d.problem();
        prob.budget = budget;
        if (!(budget > prob.minTotalPower()))
            return;
        d.reset(prob);
        // A seeded start holds the floor barrier; the uniform one
        // starts wide open at eta_initial.
        ok = d.barrierWeight(0) == eta;
    }
    ASSERT_EQ(ok, ref.ok) << "budget " << budget;
    if (!ok)
        return;
    const std::vector<double> &p = d.power();
    const std::vector<double> &e = d.estimates();
    bool on_step = false;
    for (std::size_t i = 0; i < us.size(); ++i) {
        ASSERT_NEAR(p[i], ref.p[i], 1e-9) << "node " << i;
        ASSERT_EQ(e[i], e[0]) << "node " << i;
        const auto &q = dynamic_cast<const QuadraticUtility &>(*us[i]);
        if (q.coeffC() == 0.0 && q.coeffB() == ref.lambda)
            on_step = true;
        if (q.coeffC() < 0.0 && p[i] > q.minPower() &&
            p[i] < q.maxPower()) {
            const double marginal =
                q.coeffB() + 2.0 * q.coeffC() * p[i];
            ASSERT_NEAR(marginal, ref.lambda, 1e-9 * ref.lambda)
                << "node " << i;
        }
    }
    const double pinned = eta / -e[0];
    if (on_step)
        EXPECT_LT(pinned, ref.lambda);
    else
        EXPECT_NEAR(pinned, ref.lambda, 1e-9 * ref.lambda);
    EXPECT_LT(e[0], 0.0);
    EXPECT_NEAR(e[0], ref.e0, 1e-9 * std::fabs(ref.e0));
    double se = 0.0;
    for (const double x : e)
        se += x;
    EXPECT_NEAR(se, d.totalPower() - budget, 1e-9 * budget);
}

} // namespace

TEST(WarmStartTest, LinearUtilitiesKeepConservation)
{
    // Small clusters with linear utilities put the water level on a
    // demand step often; every warm step must leave the invariant
    // exact.
    Rng rng(0x5eed);
    std::size_t steps = 0;
    for (int cluster = 0; cluster < 400; ++cluster) {
        const std::size_t n = 3 + rng.index(10);
        AllocationProblem prob;
        prob.utilities = mixedUtilities(n, rng);
        const double lo = minTotal(prob.utilities);
        const double hi = maxTotal(prob.utilities);
        prob.budget = lo + rng.uniform(0.2, 0.8) * (hi - lo);
        DibaAllocator d(makeRing(n), DibaAllocator::Config{});
        d.reset(prob);
        Rng step_rng(1);
        for (int ev = 0; ev < 25; ++ev) {
            const double target = lo + rng.uniform(0.05, 1.1) * (hi - lo);
            d.warmStart(d.result(), target - d.budget());
            ++steps;
            const double budget = d.budget();
            double se = 0.0;
            for (const double x : d.estimates())
                se += x;
            ASSERT_NEAR(se, d.totalPower() - budget, 1e-9 * budget)
                << "cluster " << cluster << " event " << ev;
            for (int r = 0; r < 3; ++r)
                d.step(step_rng);
        }
    }
    EXPECT_EQ(steps, 400u * 25u);
}

TEST(WarmSeedOracleTest, NpbClusterMatchesBisection)
{
    const std::size_t n = 6400;
    const auto prob = test::npbProblem(n, 172.0, 5);
    DibaAllocator d(makeRing(n), DibaAllocator::Config{});
    d.reset(prob);
    for (const SeedPath path : {SeedPath::Reseed, SeedPath::Reset})
        for (const double w : {130.0, 150.0, 172.0, 195.0})
            expectSeedMatchesBisection(
                d, w * static_cast<double>(n),
                "npb " + std::to_string(w) + " W", path);
}

TEST(WarmSeedOracleTest, BudgetsAtTheBoxEdgesMatchBisection)
{
    const std::size_t n = 1024;
    const auto prob = test::npbProblem(n, 172.0, 9);
    const double lo = prob.minTotalPower();
    const double hi = prob.maxTotalPower();
    DibaAllocator d(makeRing(n), DibaAllocator::Config{});
    d.reset(prob);
    for (const SeedPath path : {SeedPath::Reseed, SeedPath::Reset}) {
        expectSeedMatchesBisection(d, lo + 1e-3, "floor + 1 mW", path);
        expectSeedMatchesBisection(d, lo * (1.0 + 1e-9),
                                   "floor + 1e-9", path);
        expectSeedMatchesBisection(d, hi - 1e-3, "ceiling - 1 mW",
                                   path);
        expectSeedMatchesBisection(d, hi * (1.0 - 1e-9),
                                   "ceiling - 1e-9", path);
        expectSeedMatchesBisection(d, hi + 50.0, "above the ceiling",
                                   path);
        // At or under the floor no strictly feasible seed exists:
        // both refuse (checked inside; reset() itself requires a
        // budget above the floor).
        expectSeedMatchesBisection(d, lo, "at the floor", path);
        expectSeedMatchesBisection(d, lo - 1.0, "under the floor",
                                   path);
    }
}

TEST(WarmSeedOracleTest, IdenticalUtilitiesMatchBisection)
{
    // Two shapes repeated: every breakpoint is shared by half the
    // cluster, so each segment boundary is a tie.
    const std::size_t n = 600;
    std::vector<UtilityPtr> us;
    for (std::size_t i = 0; i < n; ++i)
        us.push_back(i % 2 == 0 ? shape(0.4, 0.6, 100.0, 200.0, 1.0)
                                : shape(0.7, 0.9, 90.0, 180.0, 1.3));
    AllocationProblem prob;
    prob.utilities = us;
    prob.budget = 150.0 * static_cast<double>(n);
    DibaAllocator d(makeRing(n), DibaAllocator::Config{});
    d.reset(prob);
    const double lo = minTotal(us);
    const double hi = maxTotal(us);
    for (const SeedPath path : {SeedPath::Reseed, SeedPath::Reset})
        for (const double frac : {0.01, 0.2, 0.5, 0.8, 0.99})
            expectSeedMatchesBisection(
                d, lo + frac * (hi - lo),
                "ties " + std::to_string(frac), path);
}

TEST(WarmSeedOracleTest, LinearMixesMatchBisection)
{
    // Roots inside segments and on linear steps alike.
    Rng rng(77);
    for (int cluster = 0; cluster < 8; ++cluster) {
        const std::size_t n = 64 + rng.index(400);
        AllocationProblem prob;
        prob.utilities = mixedUtilities(n, rng);
        const double lo = minTotal(prob.utilities);
        const double hi = maxTotal(prob.utilities);
        prob.budget = 0.5 * (lo + hi);
        DibaAllocator::Config cfg;
        Rng topo_rng(cluster);
        DibaAllocator d(makeChordalRing(n, n / 8, topo_rng), cfg);
        d.reset(prob);
        for (int k = 0; k < 12; ++k) {
            const double budget =
                lo + rng.uniform(0.001, 1.0) * (hi - lo);
            const std::string what = "mix " + std::to_string(cluster) +
                                     "/" + std::to_string(k);
            expectSeedMatchesBisection(d, budget, what);
            expectSeedMatchesBisection(d, budget, what,
                                       SeedPath::Reset);
        }
    }
}

TEST(WarmSeedTableTest, UtilitySwapsRebuildTheTable)
{
    const std::size_t n = 400;
    const auto prob = test::npbProblem(n, 172.0, 41);
    const Graph g = makeRing(n);
    DibaAllocator d(g, DibaAllocator::Config{});
    d.reset(prob);
    d.warmStart(d.result(), 0.05 * prob.budget);

    // Other quadratics: the next seed must come from the swapped
    // problem, bitwise as a fresh allocator seeds it -- caps,
    // estimates and barriers.
    const UtilityPtr quad = shape(0.3, 0.5, 110.0, 210.0, 1.7);
    const UtilityPtr linear = shape(0.6, 0.0, 95.0, 190.0, 0.8);
    auto swapped = prob;
    const auto swap = [&](std::size_t i, const UtilityPtr &u) {
        d.setUtility(i, u);
        swapped.utilities[i] = u;
    };
    const auto expectFreshSeed = [&](double delta, const char *what) {
        SCOPED_TRACE(what);
        swapped.budget = d.budget();
        d.warmStart(d.result(), delta);
        DibaAllocator fresh(g, DibaAllocator::Config{});
        fresh.reset(swapped);
        fresh.warmStart(fresh.result(), delta);
        EXPECT_EQ(d.power(), fresh.power());
        EXPECT_EQ(d.estimates(), fresh.estimates());
        EXPECT_EQ(d.budget(), fresh.budget());
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(d.barrierWeight(i), fresh.barrierWeight(i))
                << "node " << i;
    };
    swap(17, quad);
    expectFreshSeed(-0.08 * prob.budget, "one swap");

    // Several swaps between two seeds, with rounds in between and
    // one swap undone: each rewrites only its own slot.
    swap(203, linear);
    swap(399, quad);
    swap(0, linear);
    Rng rng(3);
    for (int r = 0; r < 40; ++r)
        d.step(rng);
    swap(203, prob.utilities[203]);
    swap(17, linear);
    expectFreshSeed(0.03 * prob.budget, "several swaps");
}

TEST(WarmStartTest, StepsToThePowerFloorKeepConservation)
{
    // A budget at or under the power floor has no barrier
    // equilibrium: the step is announced as a uniform estimate
    // shift plus the emergency shed.  Either way sum(e) = sum(p) - P
    // holds and every cap stays in its box, and a later step back
    // above the floor seeds again.
    const std::size_t n = 400;
    const auto prob = test::npbProblem(n, 172.0, 43);
    DibaAllocator d(makeRing(n), DibaAllocator::Config{});
    d.reset(prob);
    const double lo = prob.minTotalPower();
    Rng rng(6);
    const auto expectConserved = [&](const char *what) {
        SCOPED_TRACE(what);
        double se = 0.0;
        for (const double x : d.estimates())
            se += x;
        EXPECT_NEAR(se, d.totalPower() - d.budget(), 1e-9 * prob.budget);
        for (std::size_t i = 0; i < n; ++i) {
            const UtilityFunction &u = *d.utilities()[i];
            ASSERT_GE(d.power()[i], u.minPower()) << "node " << i;
            ASSERT_LE(d.power()[i], u.maxPower()) << "node " << i;
        }
    };
    for (const double target : {lo, lo - 0.02 * lo, lo - 1.0}) {
        SCOPED_TRACE(target);
        d.warmStart(d.result(), target - d.budget());
        EXPECT_NEAR(d.budget(), target, 1e-9 * target);
        expectConserved("step");
        for (int r = 0; r < 20; ++r)
            d.step(rng);
        expectConserved("rounds");
    }
    d.warmStart(d.result(), prob.budget - d.budget());
    expectConserved("back above the floor");
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(d.estimates()[i], d.estimates()[0]) << "node " << i;
        ASSERT_EQ(d.barrierWeight(i), d.config().eta) << "node " << i;
    }
    EXPECT_LT(d.estimates()[0], 0.0);
    EXPECT_LT(d.totalPower(), d.budget());
}

namespace {

/** Fail the listed original-id blocks [begin, end) quietly, as the
 * sharded recovery does, and re-federate over the live
 * components. */
std::vector<std::uint32_t>
failBlocksAndRefederate(DibaAllocator &d,
                        const std::vector<std::pair<std::size_t,
                                                    std::size_t>> &blocks)
{
    std::vector<std::size_t> dead;
    for (const auto &[b, e] : blocks)
        for (std::size_t i = b; i < e; ++i)
            dead.push_back(i);
    if (!dead.empty())
        d.failNodesQuiet(dead);
    std::vector<std::uint32_t> label;
    const std::size_t k = d.liveComponents(label);
    d.refederateBudget(label, k);
    return label;
}

/** The shares each component was seeded against: the
 * federation's, or P alone when re-federation dissolved it. */
std::vector<double>
sharesOf(const DibaAllocator &d)
{
    return d.federationActive() ? d.federationShares()
                                : std::vector<double>{d.budget()};
}

/**
 * Hold live component j to the bisection over its own active
 * nodes at `share`: caps within 1e-9 W, the estimate uniform
 * except on the lowest id (the compensation node), the component's
 * estimate sum at sum p - share, and the barriers at cfg.eta.
 */
void
expectComponentSeeded(const DibaAllocator &d,
                      const std::vector<std::uint32_t> &label,
                      std::uint32_t j, double share)
{
    SCOPED_TRACE("component " + std::to_string(j));
    const double eta = d.config().eta;
    std::vector<std::size_t> ids;
    std::vector<UtilityPtr> us;
    for (std::size_t i = 0; i < label.size(); ++i)
        if (label[i] == j) {
            ids.push_back(i);
            us.push_back(d.utilities()[i]);
        }
    ASSERT_GE(ids.size(), 2u);
    const Seed ref = bisectionSeed(us, share, eta);
    ASSERT_TRUE(ref.ok);
    const std::vector<double> &p = d.power();
    const std::vector<double> &e = d.estimates();
    const double e0 = e[ids[1]];
    double sp = 0.0, se = 0.0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
        const std::size_t i = ids[k];
        ASSERT_NEAR(p[i], ref.p[k], 1e-9) << "node " << i;
        if (k > 0) {
            ASSERT_EQ(e[i], e0) << "node " << i;
        }
        ASSERT_EQ(d.barrierWeight(i), eta) << "node " << i;
        sp += p[i];
        se += e[i];
    }
    EXPECT_LT(e0, 0.0);
    EXPECT_NEAR(e0, ref.e0, 1e-9 * std::fabs(ref.e0));
    EXPECT_NEAR(e[ids[0]], e0, 1e-9 * std::fabs(e0));
    EXPECT_NEAR(se, sp - share, 1e-9 * share);
}

void
expectComponentsSeeded(const DibaAllocator &d,
                       const std::vector<std::uint32_t> &label)
{
    const std::vector<double> shares = sharesOf(d);
    for (std::uint32_t j = 0; j < shares.size(); ++j)
        expectComponentSeeded(d, label, j, shares[j]);
}

} // namespace

TEST(RecoverySeedTest, OneSurvivingComponentMatchesBisection)
{
    // A dead block leaves one arc of the ring: it is seeded at P.
    const std::size_t n = 1024;
    const auto prob = test::npbProblem(n, 172.0, 11);
    DibaAllocator d(makeRing(n), DibaAllocator::Config{});
    d.reset(prob);
    Rng rng(1);
    for (int r = 0; r < 30; ++r)
        d.step(rng);
    const auto label = failBlocksAndRefederate(d, {{300, 700}});
    EXPECT_FALSE(d.federationActive());
    expectComponentsSeeded(d, label);
}

TEST(RecoverySeedTest, FederatedComponentsMatchBisection)
{
    // Two dead blocks split the ring into two arcs, each seeded at
    // its federated share.
    const std::size_t n = 900;
    const auto prob = test::npbProblem(n, 160.0, 13);
    DibaAllocator::Config cfg;
    DibaAllocator d(makeRing(n), cfg);
    d.reset(prob);
    Rng rng(2);
    for (int r = 0; r < 25; ++r)
        d.step(rng);
    const auto label =
        failBlocksAndRefederate(d, {{100, 180}, {500, 520}});
    ASSERT_TRUE(d.federationActive());
    ASSERT_EQ(d.federationShares().size(), 2u);
    expectComponentsSeeded(d, label);
}

TEST(RecoverySeedTest, DissolvingTheFederationSeedsAtTheBudget)
{
    // Rejoining the dead block reconnects the ring: re-federating
    // over the one component dissolves the shares and seeds every
    // node at P, like a warm start.
    const std::size_t n = 600;
    const auto prob = test::npbProblem(n, 175.0, 17);
    DibaAllocator d(makeRing(n), DibaAllocator::Config{});
    d.reset(prob);
    failBlocksAndRefederate(d, {{50, 60}, {300, 330}});
    ASSERT_TRUE(d.federationActive());
    for (std::size_t i = 300; i < 330; ++i)
        d.joinNode(i);
    Rng rng(4);
    for (int r = 0; r < 10; ++r)
        d.step(rng);
    const auto label = failBlocksAndRefederate(d, {});
    EXPECT_FALSE(d.federationActive());
    expectComponentsSeeded(d, label);
}

TEST(RecoverySeedTest, RefusingComponentKeepsTheUniformShift)
{
    // A share at or under a component's power floor refuses its
    // seed: that component takes the uniform shift bit for bit,
    // while the other one is seeded.  Such a share comes from the
    // no-headroom arm of refederateBudgetWithHeld, which keeps the
    // held budgets as the shares once the survivors' floors reach
    // P: here the servers of one arc switch to a workload whose
    // floors do, and the held budgets are supplied as the sharded
    // recovery supplies the broker's fold.
    const std::size_t n = 800;
    const auto prob = test::npbProblem(n, 170.0, 19);
    DibaAllocator d(makeRing(n), DibaAllocator::Config{});
    d.reset(prob);
    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i < 100; ++i)
        dead.push_back(i);
    for (std::size_t i = 400; i < 450; ++i)
        dead.push_back(i);
    d.failNodesQuiet(dead);
    std::vector<std::uint32_t> label;
    const std::size_t k = d.liveComponents(label);
    ASSERT_EQ(k, 2u);
    const std::uint32_t refused = label[250];
    const UtilityPtr heavy = shape(0.5, 0.5, 320.0, 420.0, 1.0);
    std::vector<double> floor(k, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        if (!d.isActive(i))
            continue;
        if (label[i] != refused)
            d.setUtility(i, heavy);
        floor[label[i]] += d.utilities()[i]->minPower();
    }
    ASSERT_GE(floor[0] + floor[1], d.budget()) << "no headroom";
    // The seeded arc holds just over its floor, the refused one the
    // rest of P, which is under its floor.
    std::vector<double> held(k);
    held[1 - refused] = floor[1 - refused] + 1.0;
    held[refused] = d.budget() - held[1 - refused] - 1.0;
    ASSERT_LT(held[refused], floor[refused]);
    const std::vector<double> p_before = d.power();
    const std::vector<double> e_before = d.estimates();
    d.refederateBudgetWithHeld(label, k, held);
    ASSERT_TRUE(d.federationActive());

    std::size_t cnt = 0;
    for (const std::uint32_t l : label)
        cnt += l == refused;
    const double shift =
        (held[refused] - d.federationShares()[refused]) /
        static_cast<double>(cnt);
    for (std::size_t i = 0; i < n; ++i) {
        if (label[i] != refused)
            continue;
        const double want = e_before[i] + shift;
        ASSERT_LT(want, 0.0) << "the shift must not shed here";
        ASSERT_EQ(d.estimates()[i], want) << "node " << i;
        ASSERT_EQ(d.power()[i], p_before[i]) << "node " << i;
    }

    // The other component is seeded at its share.
    const std::uint32_t other = 1 - refused;
    expectComponentSeeded(d, label, other,
                          d.federationShares()[other]);
}

TEST(ColdSeedTest, NonQuadraticClustersAreRefused)
{
    // DiBA takes quadratic utilities only: reset() names the first
    // node that is not one, whether every node or a single one is
    // piecewise-linear.
    const std::size_t n = 256;
    const auto prob = test::npbProblem(n, 172.0, 29);
    const Graph g = makeRing(n);
    const UtilityPtr pwl = std::make_shared<PiecewiseLinearUtility>(
        std::vector<double>{100.0, 150.0, 200.0},
        std::vector<double>{0.4, 0.8, 0.9});
    auto all = prob;
    for (UtilityPtr &u : all.utilities)
        u = pwl;
    EXPECT_DEATH(
        {
            DibaAllocator d(g, DibaAllocator::Config{});
            d.reset(all);
        },
        "node 0's utility is not a QuadraticUtility");
    auto mixed = prob;
    mixed.utilities[40] = pwl;
    EXPECT_DEATH(
        {
            DibaAllocator d(g, DibaAllocator::Config{});
            d.reset(mixed);
        },
        "node 40's utility is not a QuadraticUtility");
    // A budget at the power floor never reaches the seed: reset()
    // requires strict interior feasibility.
    auto floor = prob;
    floor.budget = prob.minTotalPower();
    EXPECT_DEATH(
        {
            DibaAllocator d(g, DibaAllocator::Config{});
            d.reset(floor);
        },
        "strict interior feasibility");
}
