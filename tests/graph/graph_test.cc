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

TEST(GraphTest, AddEdgeRejectsSelfLoopsAndDuplicates)
{
    Graph g(3);
    EXPECT_TRUE(g.addEdge(0, 1));
    EXPECT_FALSE(g.addEdge(0, 0));
    EXPECT_FALSE(g.addEdge(1, 0));
    EXPECT_EQ(g.numEdges(), 1u);
}

TEST(GraphTest, HasEdgeSymmetric)
{
    Graph g(4);
    g.addEdge(1, 3);
    EXPECT_TRUE(g.hasEdge(1, 3));
    EXPECT_TRUE(g.hasEdge(3, 1));
    EXPECT_FALSE(g.hasEdge(0, 1));
}

TEST(GraphTest, DegreesAndAverage)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(0, 3);
    EXPECT_EQ(g.degree(0), 3u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(g.maxDegree(), 3u);
    EXPECT_DOUBLE_EQ(g.averageDegree(), 1.5);
}

TEST(GraphTest, BfsDistancesOnPath)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 3);
    const auto d = g.bfsDistances(0);
    EXPECT_EQ(d[0], 0u);
    EXPECT_EQ(d[3], 3u);
}

TEST(GraphTest, BfsUnreachableSentinel)
{
    Graph g(3);
    g.addEdge(0, 1);
    const auto d = g.bfsDistances(0);
    EXPECT_EQ(d[2], g.numVertices());
}

TEST(GraphTest, ConnectivityDetection)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(2, 3);
    EXPECT_FALSE(g.isConnected());
    g.addEdge(1, 2);
    EXPECT_TRUE(g.isConnected());
}

TEST(GraphTest, DiameterOfPathGraph)
{
    Graph g(5);
    for (std::size_t v = 0; v + 1 < 5; ++v)
        g.addEdge(v, v + 1);
    EXPECT_EQ(g.diameter(), 4u);
}

TEST(GraphTest, OutOfRangePanics)
{
    Graph g(2);
    EXPECT_DEATH(g.addEdge(0, 2), "out of range");
    EXPECT_DEATH(g.neighbors(5), "out of range");
}

TEST(GraphTest, CsrMirrorsAdjacencyLists)
{
    Graph g(5);
    g.addEdge(0, 1);
    g.addEdge(0, 3);
    g.addEdge(1, 2);
    g.addEdge(3, 4);
    const GraphCsr &csr = g.csr();
    ASSERT_EQ(csr.offsets.size(), g.numVertices() + 1);
    EXPECT_EQ(csr.offsets.front(), 0u);
    EXPECT_EQ(csr.offsets.back(), 2 * g.numEdges());
    for (std::size_t v = 0; v < g.numVertices(); ++v) {
        const auto &adj = g.neighbors(v);
        ASSERT_EQ(csr.degree(v), adj.size());
        EXPECT_EQ(csr.degree(v), g.degree(v));
        for (std::size_t k = 0; k < adj.size(); ++k)
            EXPECT_EQ(csr.neighbors[csr.offsets[v] + k], adj[k])
                << "vertex " << v << " slot " << k;
    }
}

TEST(GraphTest, CsrRebuildsAfterAddEdge)
{
    Graph g(4);
    g.addEdge(0, 1);
    EXPECT_EQ(g.csr().neighbors.size(), 2u);
    g.addEdge(2, 3);
    g.addEdge(1, 2);
    const GraphCsr &csr = g.csr();
    EXPECT_EQ(csr.neighbors.size(), 6u);
    EXPECT_EQ(csr.degree(1), 2u);
    EXPECT_EQ(csr.degree(3), 1u);
}

TEST(GraphTest, CsrOfEdgelessGraph)
{
    Graph g(3);
    const GraphCsr &csr = g.csr();
    EXPECT_TRUE(csr.neighbors.empty());
    for (std::size_t v = 0; v < 3; ++v)
        EXPECT_EQ(csr.degree(v), 0u);
}

TEST(GraphTest, DiameterOfRing)
{
    Graph ring(8);
    for (std::size_t v = 0; v < 8; ++v)
        ring.addEdge(v, (v + 1) % 8);
    EXPECT_EQ(ring.diameter(), 4u);
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
        const auto &gv = g.neighbors(v);
        const auto &hv = h.neighbors(shuf[v]);
        ASSERT_EQ(gv.size(), hv.size());
        for (std::size_t k = 0; k < gv.size(); ++k)
            EXPECT_EQ(hv[k], shuf[gv[k]]);
    }
}

} // namespace
} // namespace dpc
