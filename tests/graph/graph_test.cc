#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/graph.hh"
#include "graph/topologies.hh"
#include "util/rng.hh"

namespace dpc {
namespace {

TEST(GraphTest, EmptyGraphBasics)
{
    Graph g(5);
    EXPECT_EQ(g.numVertices(), 5u);
    EXPECT_EQ(g.numEdges(), 0u);
    EXPECT_EQ(g.averageDegree(), 0.0);
    EXPECT_FALSE(g.isConnected());
}

/** The graph of `edges` over n vertices, added in order. */
Graph
graphOf(std::size_t n,
        std::initializer_list<std::pair<std::size_t, std::size_t>> edges)
{
    Graph::Builder b(n);
    for (const auto &[u, v] : edges)
        b.addEdge(u, v);
    return b.build();
}

TEST(GraphTest, AddEdgeRejectsSelfLoopsAndDuplicates)
{
    Graph::Builder b(3);
    EXPECT_TRUE(b.addEdge(0, 1));
    EXPECT_FALSE(b.addEdge(0, 0));
    EXPECT_FALSE(b.addEdge(1, 0));
    EXPECT_EQ(b.numEdges(), 1u);
    EXPECT_EQ(b.build().numEdges(), 1u);
}

TEST(GraphTest, HasEdgeSymmetric)
{
    Graph::Builder b(4);
    b.addEdge(1, 3);
    EXPECT_TRUE(b.hasEdge(3, 1));
    EXPECT_FALSE(b.hasEdge(0, 1));
    const Graph g = b.build();
    EXPECT_TRUE(g.hasEdge(1, 3));
    EXPECT_TRUE(g.hasEdge(3, 1));
    EXPECT_FALSE(g.hasEdge(0, 1));
}

TEST(GraphTest, DegreesAndAverage)
{
    const Graph g = graphOf(4, {{0, 1}, {0, 2}, {0, 3}});
    EXPECT_EQ(g.degree(0), 3u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(g.maxDegree(), 3u);
    EXPECT_DOUBLE_EQ(g.averageDegree(), 1.5);
}

TEST(GraphTest, BfsDistancesOnPath)
{
    const Graph g = graphOf(4, {{0, 1}, {1, 2}, {2, 3}});
    const auto d = g.bfsDistances(0);
    EXPECT_EQ(d[0], 0u);
    EXPECT_EQ(d[3], 3u);
}

TEST(GraphTest, BfsUnreachableSentinel)
{
    const Graph g = graphOf(3, {{0, 1}});
    const auto d = g.bfsDistances(0);
    EXPECT_EQ(d[2], g.numVertices());
}

TEST(GraphTest, ConnectivityDetection)
{
    Graph::Builder b(4);
    b.addEdge(0, 1);
    b.addEdge(2, 3);
    EXPECT_FALSE(b.build().isConnected());
    b.addEdge(1, 2);
    EXPECT_TRUE(b.build().isConnected());
    EXPECT_TRUE(Graph(1).isConnected());
    EXPECT_TRUE(Graph().isConnected());
}

TEST(GraphTest, DiameterOfPathGraph)
{
    const Graph g = graphOf(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
    EXPECT_EQ(g.diameter(), 4u);
}

TEST(GraphTest, OutOfRangePanics)
{
    Graph::Builder b(2);
    EXPECT_DEATH(b.addEdge(0, 2), "out of range");
    const Graph g(2);
    EXPECT_DEATH(g.neighbors(5), "out of range");
}

TEST(GraphTest, CsrMirrorsAdjacencyLists)
{
    const Graph g = graphOf(5, {{0, 1}, {0, 3}, {1, 2}, {3, 4}});
    const GraphCsr &csr = g.csr();
    ASSERT_EQ(csr.offsets.size(), g.numVertices() + 1);
    EXPECT_EQ(csr.offsets.front(), 0u);
    EXPECT_EQ(csr.offsets.back(), 2 * g.numEdges());
    // neighbors(v) is a view of v's CSR slots, in insertion order.
    const std::vector<std::vector<std::uint32_t>> expect = {
        {1, 3}, {0, 2}, {1}, {0, 4}, {3}};
    for (std::size_t v = 0; v < g.numVertices(); ++v) {
        const auto adj = g.neighbors(v);
        ASSERT_EQ(csr.degree(v), adj.size());
        EXPECT_EQ(csr.degree(v), g.degree(v));
        EXPECT_EQ(adj.data(), csr.neighbors.data() + csr.offsets[v]);
        EXPECT_TRUE(std::equal(adj.begin(), adj.end(),
                               expect[v].begin(), expect[v].end()))
            << "vertex " << v;
    }
}

TEST(GraphTest, CsrRebuildsAfterAddEdge)
{
    // A build is a snapshot: edges added to the builder later land
    // in later builds only.
    Graph::Builder b(4);
    b.addEdge(0, 1);
    const Graph first = b.build();
    b.addEdge(2, 3);
    b.addEdge(1, 2);
    const Graph second = b.build();
    EXPECT_EQ(first.csr().neighbors.size(), 2u);
    EXPECT_EQ(first.degree(1), 1u);
    const GraphCsr &csr = second.csr();
    EXPECT_EQ(csr.neighbors.size(), 6u);
    EXPECT_EQ(csr.degree(1), 2u);
    EXPECT_EQ(csr.degree(3), 1u);
}

TEST(GraphTest, CsrOfEdgelessGraph)
{
    for (const Graph &g : {Graph(3), Graph::Builder(3).build()}) {
        const GraphCsr &csr = g.csr();
        EXPECT_TRUE(csr.neighbors.empty());
        ASSERT_EQ(csr.offsets.size(), 4u);
        for (std::size_t v = 0; v < 3; ++v)
            EXPECT_EQ(csr.degree(v), 0u);
    }
    EXPECT_EQ(Graph().numVertices(), 0u);
}

TEST(GraphTest, DiameterOfRing)
{
    EXPECT_EQ(makeRing(8).diameter(), 4u);
}

TEST(GraphTest, RelabeledPreservesStructureAndNeighborOrder)
{
    Rng rng(13);
    const Graph g = makeChordalRing(64, 10, rng);
    std::vector<std::uint32_t> shuf(g.numVertices());
    std::iota(shuf.begin(), shuf.end(), 0u);
    rng.shuffle(shuf);
    const Graph h = g.relabeled(shuf);
    ASSERT_EQ(h.numVertices(), g.numVertices());
    ASSERT_EQ(h.numEdges(), g.numEdges());
    // Load-bearing invariant (FP reduction order, edge-id
    // enumeration): neighbour lists map element for element.
    for (std::size_t v = 0; v < g.numVertices(); ++v) {
        const auto gv = g.neighbors(v);
        const auto hv = h.neighbors(shuf[v]);
        ASSERT_EQ(gv.size(), hv.size());
        for (std::size_t k = 0; k < gv.size(); ++k)
            EXPECT_EQ(hv[k], shuf[gv[k]]);
    }
}

/** One graph of every topology factory. */
std::vector<Graph>
everyFactory()
{
    Rng rng(29);
    std::vector<std::pair<std::size_t, std::size_t>> spares;
    std::vector<Graph> out;
    out.push_back(makeRing(12));
    out.push_back(makeChordalRing(40, 10, rng));
    out.push_back(makeStar(9));
    out.push_back(makeConnectedErdosRenyi(30, 60, rng));
    out.push_back(makeRandomConnectedGraph(30, 45, rng));
    out.push_back(makeTwoTierFabric(20, 6));
    out.push_back(makeComplete(7));
    out.push_back(makeHealableRing(40, 8, 5, rng, &spares));
    return out;
}

/** Same vertices, edges, neighbour order and hasEdge answers. */
void
expectSameGraph(const Graph &a, const Graph &b)
{
    ASSERT_EQ(a.numVertices(), b.numVertices());
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (std::size_t v = 0; v < a.numVertices(); ++v) {
        const auto av = a.neighbors(v);
        const auto bv = b.neighbors(v);
        ASSERT_EQ(a.degree(v), b.degree(v));
        EXPECT_TRUE(std::equal(av.begin(), av.end(), bv.begin(), bv.end()))
            << "vertex " << v;
        for (const std::uint32_t w : av)
            EXPECT_TRUE(b.hasEdge(v, w) && b.hasEdge(w, v));
    }
}

TEST(GraphTest, CopyMoveRebuildAndRelabelKeepEveryFactoryGraph)
{
    for (const Graph &g : everyFactory()) {
        std::size_t degree_sum = 0;
        for (std::size_t v = 0; v < g.numVertices(); ++v) {
            degree_sum += g.degree(v);
            EXPECT_FALSE(g.hasEdge(v, v));
        }
        EXPECT_EQ(degree_sum, 2 * g.numEdges());
        // Rebuild by adding {v, w} once it heads both endpoints'
        // remaining lists (the earliest edge not yet added always
        // does): the builder reproduces every neighbour order.
        Graph::Builder again(g.numVertices());
        std::vector<std::size_t> pos(g.numVertices(), 0);
        for (bool progress = true; progress;) {
            progress = false;
            for (std::size_t v = 0; v < g.numVertices(); ++v) {
                const auto nv = g.neighbors(v);
                if (pos[v] == nv.size())
                    continue;
                const std::size_t w = nv[pos[v]];
                const auto nw = g.neighbors(w);
                if (pos[w] < nw.size() && nw[pos[w]] == v) {
                    EXPECT_TRUE(again.addEdge(v, w));
                    ++pos[v];
                    ++pos[w];
                    progress = true;
                }
            }
        }
        EXPECT_EQ(again.numEdges(), g.numEdges());
        expectSameGraph(g, again.build());

        const Graph copy = g;
        expectSameGraph(g, copy);
        Graph donor = g;
        const Graph moved = std::move(donor);
        expectSameGraph(g, moved);
        Graph assigned;
        assigned = moved;
        expectSameGraph(g, assigned);

        std::vector<std::uint32_t> id(g.numVertices());
        std::iota(id.begin(), id.end(), 0u);
        expectSameGraph(g, g.relabeled(id));
        EXPECT_TRUE(g.isConnected());
    }
}

} // namespace
} // namespace dpc
