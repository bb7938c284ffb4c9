/**
 * @file
 * Layout transparency of DibaAllocator: Config::layout relabels the
 * live CSR overlay at build time, and NOTHING observable may change.
 * Every public view (power/estimates/utilities/overlayEdges/
 * topology/result) speaks original ids, and the scalar round, the
 * threaded round, the colored sweep (with and without a lossy
 * channel) and the full churn machinery (fail/join/edge mask,
 * incremental coloring repair) must be bitwise identical to the
 * identity-layout allocator -- the permutation moves cache lines,
 * never results.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "alloc/diba.hh"
#include "fault/lossy_channel.hh"
#include "graph/reorder.hh"
#include "graph/topologies.hh"
#include "tests/alloc/test_problems.hh"
#include "util/rng.hh"

namespace dpc {
namespace {

constexpr std::size_t kNodes = 96;
constexpr std::uint64_t kProblemSeed = 61;
constexpr std::uint64_t kSweepSeed = 5151;

/**
 * An id-scrambled chordal ring: isomorphic to the well-laid-out
 * ring but with adversarial vertex ids, so every non-identity
 * layout has real work to do (and RCM provably picks a non-trivial
 * permutation).
 */
Graph
scrambledTopology()
{
    Rng rng(17);
    const Graph ring = makeChordalRing(kNodes, kNodes / 4, rng);
    std::vector<std::uint32_t> shuf(ring.numVertices());
    std::iota(shuf.begin(), shuf.end(), 0u);
    rng.shuffle(shuf);
    return ring.relabeled(shuf);
}

DibaAllocator
makeAllocator(const Graph &g, Layout layout,
              std::size_t threads = 0)
{
    DibaAllocator::Config cfg;
    cfg.layout = layout;
    cfg.num_threads = threads;
    return DibaAllocator(g, cfg);
}

void
expectBitwiseEqual(const DibaAllocator &a, const DibaAllocator &b,
                   const char *what)
{
    ASSERT_EQ(a.power().size(), b.power().size());
    for (std::size_t i = 0; i < a.power().size(); ++i) {
        ASSERT_EQ(a.power()[i], b.power()[i])
            << what << ": power diverges at node " << i;
        ASSERT_EQ(a.estimates()[i], b.estimates()[i])
            << what << ": estimate diverges at node " << i;
    }
}

} // namespace

TEST(DibaLayoutTest, ViewsSpeakOriginalIds)
{
    const Graph g = scrambledTopology();
    DibaAllocator id = makeAllocator(g, Layout::identity);
    DibaAllocator rcm = makeAllocator(g, Layout::rcm);

    EXPECT_FALSE(id.layoutActive());
    ASSERT_TRUE(rcm.layoutActive())
        << "RCM must pick a non-trivial permutation on a "
           "scrambled chordal ring";

    // topology() is the caller's graph regardless of layout.
    const Graph &tv = rcm.topology();
    ASSERT_EQ(tv.numVertices(), g.numVertices());
    for (std::size_t v = 0; v < g.numVertices(); ++v)
        EXPECT_EQ(tv.neighbors(v), g.neighbors(v));

    // overlayEdges() is the canonical original-id enumeration:
    // edge id k of the permuted allocator names the same pair as
    // edge id k of the identity allocator.
    ASSERT_EQ(rcm.overlayEdges().size(), id.overlayEdges().size());
    for (std::size_t k = 0; k < id.overlayEdges().size(); ++k)
        EXPECT_EQ(rcm.overlayEdges()[k], id.overlayEdges()[k]);
}

TEST(DibaLayoutTest, ScalarRoundsBitwiseInvariant)
{
    const Graph g = scrambledTopology();
    const auto prob = test::npbProblem(kNodes, 171.0, kProblemSeed);

    DibaAllocator id = makeAllocator(g, Layout::identity);
    id.reset(prob);
    for (const Layout l :
         {Layout::rcm, Layout::bisection, Layout::automatic}) {
        DibaAllocator perm = makeAllocator(g, l);
        perm.reset(prob);
        expectBitwiseEqual(id, perm, "reset");
        DibaAllocator id2 = makeAllocator(g, Layout::identity);
        id2.reset(prob);
        for (int r = 0; r < 40; ++r) {
            ASSERT_EQ(id2.iterate(), perm.iterate());
            expectBitwiseEqual(id2, perm, layoutName(l));
        }
        const AllocationResult ra = id2.result();
        const AllocationResult rb = perm.result();
        ASSERT_EQ(ra.power, rb.power);
        EXPECT_EQ(ra.utility, rb.utility);
    }
}

TEST(DibaLayoutTest, ThreadedRoundsMatchScalarUnderLayout)
{
    const Graph g = scrambledTopology();
    const auto prob = test::npbProblem(kNodes, 171.0, kProblemSeed);

    DibaAllocator scalar = makeAllocator(g, Layout::identity, 0);
    DibaAllocator mt = makeAllocator(g, Layout::rcm, 3);
    scalar.reset(prob);
    mt.reset(prob);
    for (int r = 0; r < 30; ++r) {
        ASSERT_EQ(scalar.iterate(), mt.iterate());
        expectBitwiseEqual(scalar, mt, "threads=3 + rcm");
    }
}

TEST(DibaLayoutTest, ColoredSweepBitwiseInvariant)
{
    const Graph g = scrambledTopology();
    const auto prob = test::npbProblem(kNodes, 171.0, kProblemSeed);

    DibaAllocator id = makeAllocator(g, Layout::identity);
    DibaAllocator rcm = makeAllocator(g, Layout::rcm);
    id.reset(prob);
    rcm.reset(prob);

    Rng rng_a(kSweepSeed);
    Rng rng_b(kSweepSeed);
    for (int s = 0; s < 10; ++s) {
        ASSERT_EQ(id.gossipSweep(rng_a), rcm.gossipSweep(rng_b));
        expectBitwiseEqual(id, rcm, "sweep");
    }
}

TEST(DibaLayoutTest, ChannelSweepBitwiseInvariant)
{
    // The lossy channel keys its fate stream off the edge ids and
    // ORIGINAL endpoints it is handed; if the layout leaked
    // permuted ids into fate(), the drop pattern (and the state)
    // would diverge immediately.
    const Graph g = scrambledTopology();
    const auto prob = test::npbProblem(kNodes, 171.0, kProblemSeed);

    LossyChannel::Config lossy;
    lossy.drop_rate = 0.25;
    DibaAllocator id = makeAllocator(g, Layout::identity);
    DibaAllocator rcm = makeAllocator(g, Layout::rcm);
    id.reset(prob);
    rcm.reset(prob);

    Rng rng_a(kSweepSeed);
    Rng rng_b(kSweepSeed);
    LossyChannel chan_a(lossy, 99);
    LossyChannel chan_b(lossy, 99);
    for (int s = 0; s < 10; ++s) {
        ASSERT_EQ(id.gossipSweep(rng_a, &chan_a),
                  rcm.gossipSweep(rng_b, &chan_b));
        expectBitwiseEqual(id, rcm, "channel sweep");
    }
    EXPECT_EQ(chan_a.stats().offered, chan_b.stats().offered);
    EXPECT_EQ(chan_a.stats().dropped, chan_b.stats().dropped);
}

TEST(DibaLayoutTest, ChurnAndColoringRepairBitwiseInvariant)
{
    // Fail/join/heal churn under a non-identity layout: the
    // incremental coloring repair, the live-edge swap-erase lists
    // and the recovery budget accounting all run on working ids
    // internally but must stay in lockstep with the identity
    // allocator fed the same original-id operations.
    const Graph g = scrambledTopology();
    const auto prob = test::npbProblem(kNodes, 171.0, kProblemSeed);

    DibaAllocator id = makeAllocator(g, Layout::identity);
    DibaAllocator rcm = makeAllocator(g, Layout::rcm);
    id.reset(prob);
    rcm.reset(prob);

    Rng rng_a(kSweepSeed);
    Rng rng_b(kSweepSeed);
    const auto sweep = [&](int times) {
        for (int s = 0; s < times; ++s)
            ASSERT_EQ(id.gossipSweep(rng_a),
                      rcm.gossipSweep(rng_b));
    };

    sweep(3);
    // Mask a pair of overlay edges (original endpoints).
    const auto e0 = id.overlayEdges()[2];
    const auto e1 = id.overlayEdges()[7];
    for (DibaAllocator *d : {&id, &rcm}) {
        d->setEdgeEnabled(e0.first, e0.second, false);
        d->setEdgeEnabled(e1.first, e1.second, false);
    }
    sweep(3);
    // Crash-fail two servers, sweep, then heal everything.
    for (DibaAllocator *d : {&id, &rcm}) {
        d->failNode(5);
        d->failNode(31);
    }
    EXPECT_EQ(id.numActive(), rcm.numActive());
    EXPECT_FALSE(rcm.isActive(5));
    EXPECT_FALSE(rcm.isActive(31));
    sweep(3);
    for (DibaAllocator *d : {&id, &rcm}) {
        d->joinNode(31);
        d->joinNode(5);
        d->setEdgeEnabled(e0.first, e0.second, true);
        d->setEdgeEnabled(e1.first, e1.second, true);
    }
    sweep(4);
    expectBitwiseEqual(id, rcm, "churn");

    // The repaired incremental coloring must still be an exact
    // proper coloring of the live edge set on both allocators.
    EXPECT_TRUE(id.liveEdgeListExact());
    EXPECT_TRUE(rcm.liveEdgeListExact());
    std::vector<int> covered(id.overlayEdges().size(), 0);
    const EdgeColoring &col = rcm.edgeColoring();
    for (std::size_t c = 0; c < col.numColors(); ++c) {
        std::vector<std::uint8_t> touched(kNodes, 0);
        for (const std::uint32_t eid : col.matching(c)) {
            const auto &[u, v] = rcm.overlayEdges()[eid];
            EXPECT_FALSE(touched[u] || touched[v])
                << "matching " << c << " not vertex-disjoint";
            touched[u] = touched[v] = 1;
            ++covered[eid];
        }
    }
    for (std::size_t eid = 0; eid < covered.size(); ++eid)
        EXPECT_EQ(covered[eid], 1) << "edge " << eid;
}

TEST(DibaLayoutTest, ControlEventsBitwiseInvariant)
{
    // setBudget / setUtility / warmStart cross the original-id
    // boundary too (per-node scatters plus ordered reductions).
    const Graph g = scrambledTopology();
    const auto prob = test::npbProblem(kNodes, 171.0, kProblemSeed);

    DibaAllocator id = makeAllocator(g, Layout::identity);
    DibaAllocator rcm = makeAllocator(g, Layout::bisection);
    id.reset(prob);
    rcm.reset(prob);
    for (int r = 0; r < 10; ++r) {
        id.iterate();
        rcm.iterate();
    }
    const double budget = id.budget();
    id.setBudget(budget * 0.9);
    rcm.setBudget(budget * 0.9);
    expectBitwiseEqual(id, rcm, "setBudget");

    const auto prev = id.result();
    id.warmStart(prev, 40.0);
    rcm.warmStart(prev, 40.0);
    expectBitwiseEqual(id, rcm, "warmStart");
    for (int r = 0; r < 10; ++r) {
        ASSERT_EQ(id.iterate(), rcm.iterate());
        expectBitwiseEqual(id, rcm, "post-warm rounds");
    }
    EXPECT_EQ(id.totalPower(), rcm.totalPower());
}

TEST(DibaLayoutTest, ChunkLocalityClosesTheLoop)
{
    // The whole point of the subsystem: on a scrambled overlay the
    // layout-aware allocator must measure strictly better chunk
    // locality than the identity allocator, through the same
    // chunkLocality() probe the benches gate on.
    const Graph g = scrambledTopology();
    DibaAllocator id = makeAllocator(g, Layout::identity, 4);
    DibaAllocator rcm = makeAllocator(g, Layout::rcm, 4);
    const double loc_id = id.chunkLocality(4);
    const double loc_rcm = rcm.chunkLocality(4);
    EXPECT_GT(loc_rcm, loc_id);
    // automatic can never do worse than identity (it measures).
    DibaAllocator au = makeAllocator(g, Layout::automatic, 4);
    EXPECT_GE(au.chunkLocality(4), loc_id);
}

} // namespace dpc
