/**
 * @file
 * Arrival-order fuzz for the cut-batch data plane: a shard's
 * round arithmetic must be invariant to the ORDER its peer-half
 * patch deliveries arrive in and to how the round's batches are
 * SPLIT across partial frames -- UDP reorders datagrams and the
 * batch packer splits on the budget boundary, so any order
 * dependence would show up as cross-host nondeterminism.
 *
 * The scripted transport reproduces SocketTransport's depth-0
 * contract in-process: it declares the shard's cut, and the peer
 * halves of cut edges are written into the round's snapshot rows
 * in an order and chunking the test controls.  Every permutation
 * of one round's patches, and every chunked release schedule
 * across a multi-round run, must land bitwise on the
 * single-process trajectory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "cluster/shard.hh"
#include "graph/topologies.hh"
#include "net/transport.hh"
#include "tests/alloc/test_problems.hh"
#include "util/rng.hh"

namespace dpc {
namespace {

using cluster::ShardPlan;
using cluster::makeShardPlan;

/** One peer half: the value a remote owner holds for `node`
 * (ORIGINAL id) entering the round. */
struct Patch
{
    std::uint32_t node = 0;
    double value = 0.0;
};

/** Scripted shard-side transport (see file header).  tryPoll()
 * writes at most `chunk` patches per call, emulating partial
 * batches arriving between interior compute chunks; poll() writes
 * everything left. */
class ScriptTransport final : public net::Transport
{
  public:
    explicit ScriptTransport(std::vector<std::uint8_t> cut)
        : cut_(std::move(cut))
    {
    }

    const std::vector<std::uint8_t> *cutMask() const override
    {
        return &cut_;
    }

    void beginRound(std::uint64_t, double *sink) override
    {
        sink_ = sink;
    }

    void send(const net::EdgePair &) override {}

    void poll() override
    {
        while (ppos_ < patches_.size())
            file(patches_[ppos_++]);
    }

    void tryPoll() override
    {
        for (std::size_t k = 0; k < chunk_ && ppos_ < patches_.size();
             ++k)
            file(patches_[ppos_++]);
    }

    /** True while armed patches are still undelivered. */
    bool undelivered() const { return ppos_ < patches_.size(); }

    /** Arm one round's patches in the given order; chunk bounds
     * how many each tryPoll may release. */
    void injectPatches(std::vector<Patch> patches, std::size_t chunk)
    {
        EXPECT_EQ(ppos_, patches_.size())
            << "previous round left patches undelivered";
        patches_ = std::move(patches);
        ppos_ = 0;
        chunk_ = chunk == 0 ? 1 : chunk;
    }

  private:
    void file(const Patch &p)
    {
        sink_[p.node] = p.value;
    }

    std::vector<std::uint8_t> cut_;
    double *sink_ = nullptr;
    std::vector<Patch> patches_;
    std::size_t ppos_ = 0;
    std::size_t chunk_ = 1;
};

/** Shard `s`'s cut mask over the canonical edge list. */
std::vector<std::uint8_t>
cutMaskFor(const ShardPlan &plan,
           const std::vector<GraphEdge> &edges,
           std::uint32_t s)
{
    std::vector<std::uint8_t> cut;
    for (const auto &[u, v] : edges) {
        const std::uint32_t su = plan.owner_of[u];
        const std::uint32_t sv = plan.owner_of[v];
        cut.push_back(su != sv && (su == s || sv == s) ? 1 : 0);
    }
    return cut;
}

/** The patches shard `s` receives for one round: the peer half of
 * every cut edge incident to its block, values taken from the
 * combined pre-round estimate snapshot (original ids). */
std::vector<Patch>
patchesFor(const ShardPlan &plan,
           const std::vector<GraphEdge> &edges,
           const std::vector<double> &pre, std::uint32_t s)
{
    std::vector<Patch> out;
    for (const auto &[u, v] : edges) {
        const std::uint32_t su = plan.owner_of[u];
        const std::uint32_t sv = plan.owner_of[v];
        if (su == sv || (su != s && sv != s))
            continue;
        const std::size_t peer = su == s ? v : u;
        out.push_back(
            Patch{static_cast<std::uint32_t>(peer), pre[peer]});
    }
    return out;
}

void
expectOwnedBitwiseEqual(const ShardPlan &plan, std::uint32_t s,
                        const std::vector<double> &got,
                        const std::vector<double> &want,
                        const char *what)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (plan.owner_of[i] != s)
            continue;
        EXPECT_EQ(
            std::memcmp(&got[i], &want[i], sizeof(double)), 0)
            << what << " bit pattern differs at node " << i;
    }
}

TEST(ShardOrderTest, EveryPatchPermutationLandsOnTheSameBits)
{
    // One round from the reset state: shard 0's owned block after
    // the round must be bitwise identical under EVERY arrival
    // order of its patch deliveries (UDP reorder worst case), and
    // equal to the single-process round.
    const std::size_t n = 24;
    const auto prob = test::npbProblem(n, 170.0, 5);
    const DibaAllocator::Config cfg{};

    // Contiguous blocks of a ring keep the cut small, so probe chord
    // densities until shard 0 sees a cut that is big enough to be
    // interesting yet small enough to permute exhaustively.
    Graph topo;
    ShardPlan plan;
    std::vector<Patch> base;
    std::vector<double> pre;
    for (const std::size_t chords : {3u, 6u, 9u, 12u, 16u}) {
        Rng topo_rng(2);
        topo = makeChordalRing(n, chords, topo_rng);
        DibaAllocator planner(topo, cfg);
        plan = makeShardPlan(planner, 2);
        planner.reset(prob);
        pre = planner.estimates();
        base = patchesFor(plan, planner.overlayEdges(), pre, 0);
        if (base.size() >= 3 && base.size() <= 7)
            break;
    }
    ASSERT_GE(base.size(), 3u) << "cut too small to permute";
    ASSERT_LE(base.size(), 7u)
        << "cut too large for exhaustive permutation";

    // Single-process reference, one round.
    DibaAllocator ref(topo, cfg);
    ref.reset(prob);
    net::LoopbackTransport loopback;
    ref.stepWithTransport(loopback);

    std::vector<std::size_t> order(base.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::size_t perms = 0;
    do {
        std::vector<Patch> patches;
        for (const std::size_t i : order)
            patches.push_back(base[i]);

        DibaAllocator shard(topo, cfg);
        shard.reset(prob);
        ScriptTransport t(cutMaskFor(plan, shard.overlayEdges(), 0));
        // Cycle the chunked-release size too, so permutations are
        // also exercised split across partial batches.
        t.injectPatches(std::move(patches), 1 + perms % 4);
        shard.iterateShard(t, plan.block_begin[0],
                           plan.block_end[0]);
        EXPECT_FALSE(t.undelivered());

        expectOwnedBitwiseEqual(plan, 0, shard.power(),
                                ref.power(), "power");
        expectOwnedBitwiseEqual(plan, 0, shard.estimates(),
                                ref.estimates(), "estimate");
        ++perms;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_GE(perms, 6u);
}

TEST(ShardOrderTest, ShuffledSplitDeliveriesTrackTheReference)
{
    // Multi-round trajectory: both shards advance in lockstep with
    // seeded-shuffled patch orders and varying chunked release
    // (including chunk 1: every patch in its own partial batch).
    // The assembled
    // owned state must stay bitwise on the single-process
    // trajectory every round.
    const std::size_t n = 48, rounds = 20;
    const auto prob = test::npbProblem(n, 170.0, 11);
    Rng topo_rng(4);
    const auto topo = makeChordalRing(n, 6, topo_rng);
    const DibaAllocator::Config cfg{};

    DibaAllocator planner(topo, cfg);
    const auto plan = makeShardPlan(planner, 2);
    const auto &edges = planner.overlayEdges();

    DibaAllocator ref(topo, cfg);
    ref.reset(prob);
    net::LoopbackTransport loopback;

    DibaAllocator shard_a(topo, cfg), shard_b(topo, cfg);
    shard_a.reset(prob);
    shard_b.reset(prob);
    ScriptTransport ta(cutMaskFor(plan, edges, 0));
    ScriptTransport tb(cutMaskFor(plan, edges, 1));

    Rng rng(1234);
    for (std::size_t r = 0; r < rounds; ++r) {
        // Combined pre-round snapshot, each node from its owner.
        const std::vector<double> &ea = shard_a.estimates();
        const std::vector<double> &eb = shard_b.estimates();
        std::vector<double> pre(n);
        for (std::size_t i = 0; i < n; ++i)
            pre[i] = plan.owner_of[i] == 0 ? ea[i] : eb[i];

        auto pa = patchesFor(plan, edges, pre, 0);
        auto pb = patchesFor(plan, edges, pre, 1);
        if (r > 0) {
            rng.shuffle(pa);
            rng.shuffle(pb);
        }
        ta.injectPatches(std::move(pa), 1 + rng.index(4));
        tb.injectPatches(std::move(pb), 1 + rng.index(4));

        shard_a.iterateShard(ta, plan.block_begin[0],
                             plan.block_end[0]);
        shard_b.iterateShard(tb, plan.block_begin[1],
                             plan.block_end[1]);
        ref.stepWithTransport(loopback);

        expectOwnedBitwiseEqual(plan, 0, shard_a.power(),
                                ref.power(), "A power");
        expectOwnedBitwiseEqual(plan, 1, shard_b.power(),
                                ref.power(), "B power");
        expectOwnedBitwiseEqual(plan, 0, shard_a.estimates(),
                                ref.estimates(), "A estimate");
        expectOwnedBitwiseEqual(plan, 1, shard_b.estimates(),
                                ref.estimates(), "B estimate");
    }
}

} // namespace
} // namespace dpc
