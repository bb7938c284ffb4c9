/**
 * @file
 * Recovery and release at event speed.  A shard parked in a
 * blocking wait watches its broker link next to the data plane, so
 * a Quiesce or the final Bye ends the wait when it lands -- not
 * after the retransmit tick, which these tests stretch to 3 s so a
 * tick-bound wake cannot hide.  And the survivors' dead-block
 * surgery is one set operation whose result is bitwise the one the
 * node-at-a-time form produces.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <numeric>
#include <vector>

#include "alloc/diba.hh"
#include "cluster/shard.hh"
#include "graph/topologies.hh"
#include "tests/alloc/test_problems.hh"
#include "util/rng.hh"

namespace dpc {
namespace {

using cluster::ShardRunOptions;
using cluster::makeShardPlan;
using cluster::runShardedDiba;

// ---- broker frames wake a parked shard -------------------------

/** A retransmit tick long enough that any wait it bounds shows. */
constexpr int kLongTickMs = 3000;
/** Far below the tick: only an event-driven wake passes. */
constexpr double kEventBoundS = 0.5;

ShardRunOptions
longTickOptions()
{
    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = 40;
    opt.proto = net::SocketTransport::Proto::Udp;
    opt.retrans_ms = kLongTickMs;
    opt.recover = true;
    // Heartbeats ride the transport tick; keep the liveness
    // deadline clear of the stretched tick so only the kill below
    // can end a shard.
    opt.deadline_ms = 4 * kLongTickMs;
    return opt;
}

TEST(ShardEventTest, ByeReleasesReportedShardsWithoutATick)
{
    const auto prob = test::npbProblem(64, 170.0, 5);
    Rng topo_rng(9);
    const auto topo = makeChordalRing(64, 8, topo_rng);

    const auto t0 = std::chrono::steady_clock::now();
    const auto res = runShardedDiba(prob, topo, DibaAllocator::Config{},
                                    longTickOptions());
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.recoveries, 0u);
    // Fork, handshake, Result collection, Bye and reaping: a shard
    // waiting out one tick for the Bye would cost >= 3 s here.
    EXPECT_LT(wall_s - res.round_loop_s, kEventBoundS)
        << "wall " << wall_s << " s, round loop "
        << res.round_loop_s << " s";
}

TEST(ShardEventTest, QuiesceWakesTheSurvivorWithoutATick)
{
    const auto prob = test::npbProblem(64, 170.0, 5);
    Rng topo_rng(9);
    const auto topo = makeChordalRing(64, 8, topo_rng);

    ShardRunOptions opt = longTickOptions();
    // The victim's round-19 halves never reach the survivor, so the
    // survivor is surely parked in poll() -- nothing on the data
    // plane can wake it -- when the victim dies at the top of round
    // 20 (it still completes 19 on the survivor's halves).
    opt.faults.blackholeAt(1, 0, 19, 60000);
    opt.faults.killAt(1, 20);
    const auto res =
        runShardedDiba(prob, topo, DibaAllocator::Config{}, opt);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.recoveries, 1u);
    EXPECT_EQ(res.dead_mask, 1ull << 1);
    EXPECT_DOUBLE_EQ(res.availability, 1.0);
    EXPECT_EQ(res.quiesce_round, 19u);
    // Death confirmed -> Resume sent.  A Quiesce the survivor only
    // noticed on its next retransmit tick would cost >= 3 s.
    EXPECT_GT(res.recovery_s, 0.0);
    EXPECT_LT(res.recovery_s, kEventBoundS);
}

// ---- one-pass dead-block surgery -------------------------------

constexpr std::size_t kNodes = 96;

/** An id-scrambled chordal ring, so a shard's contiguous id block
 * is scattered across the overlay. */
Graph
scrambledRing()
{
    Rng rng(17);
    const Graph ring = makeChordalRing(kNodes, kNodes / 4, rng);
    std::vector<std::uint32_t> shuf(ring.numVertices());
    std::iota(shuf.begin(), shuf.end(), 0u);
    rng.shuffle(shuf);
    return ring.relabeled(shuf);
}

void
expectBitwise(const std::vector<double> &a,
              const std::vector<double> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
            << what << " bit pattern differs at node " << i;
}

/**
 * Fail the blocks of `dead_shards` on two identical allocators --
 * once as a set (listed in descending id, which the set form must
 * canonicalize), once node by node in ascending id -- and check
 * that nothing observable differs, including the live-edge order
 * every later gossip draw samples from.
 */
void
expectSetSurgeryMatchesNodeByNode(std::uint32_t shards,
                                  std::uint64_t dead_shards)
{
    const Graph topo = scrambledRing();
    const auto prob = test::npbProblem(kNodes, 170.0, 61);
    DibaAllocator::Config cfg;
    DibaAllocator set(topo, cfg);
    DibaAllocator single(topo, cfg);
    set.reset(prob);
    single.reset(prob);
    Rng set_steps(7), single_steps(7);
    for (int r = 0; r < 25; ++r) {
        set.step(set_steps);
        single.step(single_steps);
    }

    const auto plan = makeShardPlan(set, shards);
    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i < kNodes; ++i)
        if ((dead_shards >> plan.owner_of[i]) & 1)
            dead.push_back(i);
    ASSERT_FALSE(dead.empty());

    set.failNodesQuiet({dead.rbegin(), dead.rend()});
    for (const std::size_t i : dead)
        single.failNodesQuiet({i});

    expectBitwise(set.power(), single.power(), "power");
    expectBitwise(set.estimates(), single.estimates(), "estimate");
    for (std::size_t i = 0; i < kNodes; ++i) {
        EXPECT_EQ(set.isActive(i), single.isActive(i)) << "node " << i;
        EXPECT_EQ(set.isActive(i),
                  ((dead_shards >> plan.owner_of[i]) & 1) == 0)
            << "node " << i;
    }
    std::vector<std::uint32_t> set_label, single_label;
    EXPECT_EQ(set.liveComponents(set_label),
              single.liveComponents(single_label));
    EXPECT_EQ(set_label, single_label);

    Rng set_rng(4242), single_rng(4242);
    for (int t = 0; t < 1000; ++t) {
        const double a = set.gossipTick(set_rng);
        const double b = single.gossipTick(single_rng);
        ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
            << "gossip draw " << t << " diverged";
    }
    expectBitwise(set.power(), single.power(), "power after gossip");
    expectBitwise(set.estimates(), single.estimates(),
                  "estimate after gossip");
}

TEST(ShardEventTest, SetSurgeryMatchesNodeByNodeTwoShards)
{
    expectSetSurgeryMatchesNodeByNode(2, 1ull << 1);
}

TEST(ShardEventTest, SetSurgeryMatchesNodeByNodeFourShardsTwoDead)
{
    expectSetSurgeryMatchesNodeByNode(4, (1ull << 1) | (1ull << 3));
}

} // namespace
} // namespace dpc
