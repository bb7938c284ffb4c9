/**
 * @file
 * Round-engine tests: the serial, single-chunk and multi-chunk
 * engines must produce bitwise-identical trajectories; the SoA
 * kernels must agree with the plain per-node reference round
 * (reference_round.hh); non-quadratic utilities are refused; and
 * failNode() must prune the live-edge list that async gossip
 * samples from.  Every surviving round path -- the sparse
 * frontier engine, a warmStart seed, churn and a lossy transport
 * round -- is pinned thread-count invariant as well.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "alloc/diba.hh"
#include "fault/lossy_channel.hh"
#include "graph/topologies.hh"
#include "metrics/performance.hh"
#include "model/utility.hh"
#include "net/transport.hh"
#include "tests/alloc/reference_round.hh"
#include "tests/alloc/test_problems.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace dpc {
namespace {

DibaAllocator::Config
engineConfig(std::size_t threads)
{
    DibaAllocator::Config cfg;
    cfg.num_threads = threads;
    return cfg;
}

/** Run `rounds` synchronized rounds and return (power, estimates,
 * per-round max moves). */
struct Trajectory
{
    std::vector<double> p;
    std::vector<double> e;
    std::vector<double> moves;
};

Trajectory
runRounds(const Graph &g, const AllocationProblem &prob,
          const DibaAllocator::Config &cfg, std::size_t rounds)
{
    DibaAllocator diba(g, cfg);
    diba.reset(prob);
    Trajectory t;
    for (std::size_t r = 0; r < rounds; ++r)
        t.moves.push_back(diba.iterate());
    t.p = diba.power();
    t.e = diba.estimates();
    return t;
}

void
expectBitwiseEqual(const Trajectory &a, const Trajectory &b)
{
    ASSERT_EQ(a.p.size(), b.p.size());
    for (std::size_t i = 0; i < a.p.size(); ++i) {
        EXPECT_EQ(a.p[i], b.p[i]) << "power at node " << i;
        EXPECT_EQ(a.e[i], b.e[i]) << "estimate at node " << i;
    }
    ASSERT_EQ(a.moves.size(), b.moves.size());
    for (std::size_t r = 0; r < a.moves.size(); ++r)
        EXPECT_EQ(a.moves[r], b.moves[r]) << "round " << r;
}

TEST(RoundEngineTest, ThreadCountsAreBitwiseIdenticalOnRing)
{
    // From the seeded cold start and from the paper's uniform one.
    const auto prob = test::npbProblem(96, 172.0, 11);
    const Graph g = makeRing(96);
    for (const bool seeded : {true, false}) {
        SCOPED_TRACE(seeded);
        const auto cfg = [seeded](std::size_t threads) {
            DibaAllocator::Config c = engineConfig(threads);
            c.seed_cold_start = seeded;
            return c;
        };
        const auto serial = runRounds(g, prob, cfg(0), 500);
        for (const std::size_t threads : {1u, 2u, 4u})
            expectBitwiseEqual(serial,
                               runRounds(g, prob, cfg(threads), 500));
    }
}

TEST(RoundEngineTest, ThreadCountsAreBitwiseIdenticalOnErdosRenyi)
{
    const auto prob = test::npbProblem(80, 172.0, 29);
    Rng rng(5);
    const Graph g = makeConnectedErdosRenyi(80, 200, rng);
    for (const bool seeded : {true, false}) {
        SCOPED_TRACE(seeded);
        const auto cfg = [seeded](std::size_t threads) {
            DibaAllocator::Config c = engineConfig(threads);
            c.seed_cold_start = seeded;
            return c;
        };
        const auto serial = runRounds(g, prob, cfg(0), 500);
        const auto one = runRounds(g, prob, cfg(1), 500);
        const auto four = runRounds(g, prob, cfg(4), 500);
        expectBitwiseEqual(serial, one);
        expectBitwiseEqual(serial, four);
    }
}

TEST(RoundEngineTest, ThreadCountsAreBitwiseIdenticalOnEveryRoundPath)
{
    // One trajectory through every round path the pool chunks or
    // feeds: sparse frontier rounds, a warmStart budget step, dense
    // masked rounds under failNode/joinNode churn, and lossy rounds
    // routed through iterateShard over the whole overlay.  From the
    // uniform start n and the sparse frontier stay above
    // ThreadPool::kSerialCutoff, so the chunks really run on the
    // workers; the seeded start is already quiet, so its frontier
    // rounds are the serial ones.
    const std::size_t n = 4096;
    const auto prob = test::npbProblem(n, 172.0, 23);
    Rng topo_rng(8);
    const Graph g = makeChordalRing(n, n / 4, topo_rng);
    const auto run = [&](std::size_t threads, bool seeded) {
        DibaAllocator::Config cfg = engineConfig(threads);
        cfg.active_threshold = 0.02;
        cfg.seed_cold_start = seeded;
        DibaAllocator diba(g, cfg);
        diba.reset(prob);
        Trajectory t;
        const auto rounds = [&](std::size_t k) {
            for (std::size_t r = 0; r < k; ++r)
                t.moves.push_back(diba.iterate());
        };
        rounds(150);
        EXPECT_TRUE(diba.sparseEngineActive());
        EXPECT_LT(diba.frontierHotCount(), n);
        if (!seeded) {
            EXPECT_GT(diba.frontierHotCount(),
                      ThreadPool::kSerialCutoff);
        }
        diba.warmStart(diba.result(), -0.04 * prob.budget);
        rounds(60);
        diba.failNode(7);
        diba.failNode(130);
        EXPECT_FALSE(diba.sparseEngineActive());
        rounds(40);
        diba.joinNode(7);
        rounds(40);
        LossyChannel::Config lossy;
        lossy.drop_rate = 0.2;
        lossy.delay_rate = 0.3;
        lossy.max_lag = 2;
        LossyChannel chan(lossy, 99);
        net::LoopbackTransport loopback;
        for (std::size_t r = 0; r < 40; ++r)
            t.moves.push_back(diba.iterateShard(loopback, 0, n, &chan));
        diba.joinNode(130);
        rounds(40);
        t.p = diba.power();
        t.e = diba.estimates();
        return t;
    };
    for (const bool seeded : {true, false}) {
        SCOPED_TRACE(seeded);
        const auto serial = run(0, seeded);
        for (const std::size_t threads : {1u, 2u, 4u}) {
            SCOPED_TRACE(threads);
            expectBitwiseEqual(serial, run(threads, seeded));
        }
    }
}

TEST(RoundEngineTest, QuadFastPathMatchesGenericPath)
{
    // Three rounds of the SoA kernels against the plain reference
    // round: for a quadratic utility the reference's
    // finite-difference curvature is exact, so the two compute the
    // same update up to a couple of ulps of rounding-order
    // difference.  Both from the paper's uniform start.
    const auto prob = test::npbProblem(64, 172.0, 13);
    const Graph g = makeRing(64);
    DibaAllocator::Config cfg = engineConfig(0);
    cfg.seed_cold_start = false;
    const auto fast = runRounds(g, prob, cfg, 3);
    test::ReferenceState ref = test::referenceStart(prob, cfg);
    for (int r = 0; r < 3; ++r)
        test::referenceRound(g, prob.utilities, cfg, ref);
    for (std::size_t i = 0; i < fast.p.size(); ++i) {
        EXPECT_NEAR(fast.p[i], ref.p[i], 1e-12);
        EXPECT_NEAR(fast.e[i], ref.e[i], 1e-12);
    }
}

TEST(RoundEngineTest, QuadFastPathConvergesToTheSameAllocation)
{
    const auto prob = test::npbProblem(48, 172.0, 17);
    const Graph g = makeRing(48);
    DibaAllocator::Config cfg = engineConfig(0);
    cfg.seed_cold_start = false;
    DibaAllocator fast(g, cfg);
    const auto rf = fast.allocate(prob);
    ASSERT_TRUE(rf.converged);
    // The reference under allocate()'s stopping rule.
    test::ReferenceState ref = test::referenceStart(prob, cfg);
    std::size_t quiet = 0;
    for (std::size_t it = 0;
         it < cfg.max_iterations && quiet < cfg.quiet_rounds; ++it) {
        const double moved =
            test::referenceRound(g, prob.utilities, cfg, ref);
        quiet = moved < cfg.tolerance ? quiet + 1 : 0;
    }
    ASSERT_EQ(quiet, cfg.quiet_rounds);
    const double ru = totalUtility(prob.utilities, ref.p);
    EXPECT_NEAR(rf.utility, ru, 1e-6 * std::fabs(ru));
    for (std::size_t i = 0; i < prob.size(); ++i)
        EXPECT_NEAR(rf.power[i], ref.p[i], 1e-3);
}

TEST(RoundEngineTest, NonQuadraticUtilityIsRefused)
{
    auto prob = test::npbProblem(16, 172.0, 3);
    prob.utilities[5] = std::make_shared<PiecewiseLinearUtility>(
        std::vector<double>{100.0, 150.0, 200.0},
        std::vector<double>{0.2, 0.7, 0.9});
    EXPECT_DEATH(
        {
            DibaAllocator diba(makeRing(16), engineConfig(0));
            diba.reset(prob);
        },
        "node 5's utility is not a QuadraticUtility");
}

TEST(RoundEngineTest, ResultUtilityMatchesTheGenericSumBitwise)
{
    // result() sums the SoA mirror instead of n virtual value()
    // calls; the sum must be totalUtility's bit for bit, failed
    // nodes (cap withdrawn to 0, clamped to the floor) included.
    const std::size_t n = 500;
    const auto prob = test::npbProblem(n, 165.0, 37);
    Rng topo_rng(4);
    DibaAllocator::Config cfg;
    cfg.seed_cold_start = false;
    DibaAllocator diba(makeChordalRing(n, n / 4, topo_rng), cfg);
    diba.reset(prob);
    const auto expectSame = [&diba](const char *when) {
        const double got = diba.result().utility;
        const double want = totalUtility(diba.utilities(), diba.power());
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
            << when << ": " << got << " vs " << want;
    };
    expectSame("uniform start");
    for (int r = 0; r < 200; ++r)
        diba.iterate();
    expectSame("mid-solve");
    diba.failNode(17);
    diba.failNode(301);
    for (int r = 0; r < 50; ++r)
        diba.iterate();
    expectSame("after failures");
}

TEST(RoundEngineTest, SetUtilityRefreshesFastPathState)
{
    // A quadratic swap rewrites node 2's mirror slot: its cap lands
    // in the new box and result() (which sums the mirror) agrees
    // with the utilities bit for bit.  Anything else is refused.
    auto prob = test::npbProblem(16, 172.0, 3);
    DibaAllocator diba(makeRing(16), engineConfig(0));
    diba.reset(prob);
    diba.setUtility(2,
                    std::make_shared<QuadraticUtility>(
                        QuadraticUtility::fromShape(0.5, 0.5,
                                                    100.0, 120.0)));
    EXPECT_LE(diba.power()[2], 120.0);
    const double got = diba.result().utility;
    const double want = totalUtility(diba.utilities(), diba.power());
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << got << " vs " << want;
    const UtilityPtr pwl = std::make_shared<PiecewiseLinearUtility>(
        std::vector<double>{100.0, 200.0}, std::vector<double>{0.1, 0.8});
    EXPECT_DEATH(diba.setUtility(2, pwl),
                 "node 2's utility is not a QuadraticUtility");
}

TEST(RoundEngineTest, GossipNeverSamplesEdgesOfFailedNodes)
{
    // Chordal ring so removing several nodes keeps the survivors
    // connected; failNode() prunes the dead edges from the live
    // list, so every gossip tick lands on two active endpoints and
    // the budget invariants keep holding.
    const std::size_t n = 32;
    const auto prob = test::npbProblem(n, 172.0, 19);
    Rng topo_rng(2);
    DibaAllocator diba(makeChordalRing(n, 16, topo_rng),
                       engineConfig(0));
    diba.reset(prob);
    for (int r = 0; r < 20; ++r)
        diba.iterate();

    Rng rng(77);
    for (std::size_t dead : {3u, 4u, 17u}) {
        diba.failNode(dead);
        const std::vector<double> before = diba.power();
        for (int t = 0; t < 400; ++t)
            diba.gossipTick(rng);
        for (std::size_t d : {3u, 4u, 17u}) {
            if (diba.isActive(d))
                continue;
            EXPECT_EQ(diba.power()[d], before[d])
                << "dead node " << d << " moved power";
        }
        EXPECT_LT(diba.totalPower(), diba.budget());
    }
    EXPECT_EQ(diba.numActive(), n - 3);
}

} // namespace
} // namespace dpc
