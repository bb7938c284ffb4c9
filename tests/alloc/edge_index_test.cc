/**
 * @file
 * Pins DibaAllocator's edge bookkeeping, built in one pass over the
 * topology's CSR: the canonical edge ids (v ascending, w in
 * neighbors(v), v < w), the edge id of every directed slot
 * (edgeId() in both orientations), the link mask behind
 * edgeEnabled() and the live-edge list, each against a std::map
 * reference over the same enumeration.  Also pins that an
 * allocator runs bitwise the same rounds whether its Graph was
 * copied or moved in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "alloc/diba.hh"
#include "graph/topologies.hh"
#include "tests/alloc/test_problems.hh"
#include "util/rng.hh"

using namespace dpc;

namespace {

using Key = std::pair<std::uint32_t, std::uint32_t>;

/** Canonical id of every undirected edge, by the enumeration
 * (v ascending, w in neighbors(v), v < w). */
std::map<Key, std::uint32_t>
canonicalIds(const Graph &g)
{
    std::map<Key, std::uint32_t> ids;
    for (std::uint32_t v = 0; v < g.numVertices(); ++v)
        for (const std::uint32_t w : g.neighbors(v))
            if (v < w)
                ids.emplace(Key{v, w},
                            static_cast<std::uint32_t>(ids.size()));
    return ids;
}

Key
keyOf(std::size_t u, std::size_t v)
{
    return {static_cast<std::uint32_t>(std::min(u, v)),
            static_cast<std::uint32_t>(std::max(u, v))};
}

struct Case
{
    std::string name;
    Graph topo;
};

std::vector<Case>
topologies()
{
    Rng rng(41);
    std::vector<Case> out;
    out.push_back({"ring", makeRing(24)});
    out.push_back({"chordal", makeChordalRing(64, 16, rng)});
    out.push_back({"erdos-renyi",
                   makeConnectedErdosRenyi(40, 90, rng)});
    out.push_back({"star", makeStar(17)});
    out.push_back({"two-tier", makeTwoTierFabric(30, 7)});
    return out;
}

TEST(EdgeIndexTest, SlotIdsAndMaskMatchMapReference)
{
    for (const Case &c : topologies()) {
        SCOPED_TRACE(c.name);
        const Graph &g = c.topo;
        const std::map<Key, std::uint32_t> ref = canonicalIds(g);
        DibaAllocator diba(g);
        diba.reset(test::npbProblem(g.numVertices(), 170.0, 3));

        // Ids: overlayEdges() is the enumeration, index == id.
        const std::vector<GraphEdge> &edges = diba.overlayEdges();
        ASSERT_EQ(edges.size(), ref.size());
        for (const auto &[key, id] : ref)
            EXPECT_EQ(edges[id], key);

        // Every directed slot maps to its undirected edge's id.
        for (std::size_t v = 0; v < g.numVertices(); ++v)
            for (const std::uint32_t w : g.neighbors(v))
                EXPECT_EQ(diba.edgeId(v, w), ref.at(keyOf(v, w)))
                    << "slot " << v << " -> " << w;

        // Cut every third edge (by reference id), then heal one:
        // edgeEnabled() and the mask follow the map reference.
        std::map<Key, bool> enabled;
        for (const auto &[key, id] : ref)
            enabled[key] = true;
        for (const auto &[key, id] : ref) {
            if (id % 3 != 0)
                continue;
            diba.setEdgeEnabled(key.second, key.first, false);
            enabled[key] = false;
        }
        const Key healed = edges[0];
        diba.setEdgeEnabled(healed.first, healed.second, true);
        enabled[healed] = true;
        for (std::size_t v = 0; v < g.numVertices(); ++v) {
            for (const std::uint32_t w : g.neighbors(v)) {
                const Key k = keyOf(v, w);
                EXPECT_EQ(diba.edgeEnabled(v, w), enabled.at(k));
                EXPECT_EQ(diba.edgeEnabledMask()[ref.at(k)] != 0,
                          enabled.at(k));
            }
        }
        EXPECT_TRUE(diba.liveEdgeListExact());

        // Fail a node: its incident edges leave the live list.
        diba.failNode(1);
        EXPECT_TRUE(diba.liveEdgeListExact());
        for (const auto &[u, v] : diba.liveEdges()) {
            EXPECT_TRUE(u != 1 && v != 1);
            EXPECT_TRUE(enabled.at(keyOf(u, v)));
        }
    }
}

TEST(EdgeIndexTest, NonEdgeLookupPanics)
{
    DibaAllocator diba(makeRing(8));
    diba.reset(test::npbProblem(8, 170.0, 3));
    EXPECT_DEATH((void)diba.edgeId(0, 4), "not an overlay edge");
}

TEST(EdgeIndexTest, CopiedAndMovedGraphsRunBitwiseIdentically)
{
    const std::size_t n = 256;
    const AllocationProblem prob = test::npbProblem(n, 170.0, 11);
    for (const bool seeded : {true, false}) {
        SCOPED_TRACE(seeded ? "seeded start" : "uniform start");
        Rng rng(5);
        Graph g = makeChordalRing(n, n / 4, rng);
        DibaAllocator::Config cfg;
        cfg.seed_cold_start = seeded;
        DibaAllocator copied(g, cfg);
        DibaAllocator moved(std::move(g), cfg);
        copied.reset(prob);
        moved.reset(prob);
        Rng r1(1), r2(1);
        for (int round = 0; round < 50; ++round) {
            copied.step(r1);
            moved.step(r2);
        }
        EXPECT_EQ(copied.overlayEdges(), moved.overlayEdges());
        // Exact equality of every double.
        EXPECT_EQ(copied.power(), moved.power());
        EXPECT_EQ(copied.estimates(), moved.estimates());
        EXPECT_EQ(copied.result().utility, moved.result().utility);
    }
}

} // namespace
