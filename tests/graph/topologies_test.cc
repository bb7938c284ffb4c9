#include <gtest/gtest.h>

#include "graph/topologies.hh"

namespace dpc {
namespace {

TEST(TopologiesTest, RingStructure)
{
    const auto g = makeRing(6);
    EXPECT_EQ(g.numEdges(), 6u);
    for (std::size_t v = 0; v < 6; ++v)
        EXPECT_EQ(g.degree(v), 2u);
    EXPECT_TRUE(g.isConnected());
    EXPECT_EQ(g.diameter(), 3u);
}

TEST(TopologiesTest, ChordalRingAddsExactChords)
{
    Rng rng(1);
    const auto g = makeChordalRing(20, 5, rng);
    EXPECT_EQ(g.numEdges(), 25u);
    EXPECT_TRUE(g.isConnected());
}

TEST(TopologiesTest, StarStructure)
{
    const auto g = makeStar(8);
    EXPECT_EQ(g.numEdges(), 7u);
    EXPECT_EQ(g.degree(0), 7u);
    for (std::size_t v = 1; v < 8; ++v)
        EXPECT_EQ(g.degree(v), 1u);
    EXPECT_TRUE(g.isConnected());
}

TEST(TopologiesTest, CompleteGraph)
{
    const auto g = makeComplete(5);
    EXPECT_EQ(g.numEdges(), 10u);
    EXPECT_EQ(g.diameter(), 1u);
}

class ErdosRenyiTest
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ErdosRenyiTest, ConnectedWithExactEdgeCount)
{
    const std::size_t m = GetParam();
    Rng rng(m);
    const auto g = makeConnectedErdosRenyi(30, m, rng);
    EXPECT_EQ(g.numVertices(), 30u);
    EXPECT_EQ(g.numEdges(), m);
    EXPECT_TRUE(g.isConnected());
}

INSTANTIATE_TEST_SUITE_P(EdgeCounts, ErdosRenyiTest,
                         ::testing::Values(35, 45, 60, 90, 150, 300));

TEST(TopologiesTest, ErdosRenyiBoundsChecked)
{
    Rng rng(2);
    EXPECT_DEATH(makeConnectedErdosRenyi(10, 8, rng), "few edges");
    EXPECT_DEATH(makeConnectedErdosRenyi(10, 46, rng), "pairs");
}

class SparseConnectedTest
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SparseConnectedTest, ConnectedWithExactEdges)
{
    const std::size_t m = GetParam();
    Rng rng(m * 7 + 1);
    const auto g = makeRandomConnectedGraph(50, m, rng);
    EXPECT_EQ(g.numVertices(), 50u);
    EXPECT_EQ(g.numEdges(), m);
    EXPECT_TRUE(g.isConnected());
}

INSTANTIATE_TEST_SUITE_P(EdgeCounts, SparseConnectedTest,
                         ::testing::Values(49, 55, 70, 100, 200));

TEST(TopologiesTest, SparseConnectedBoundsChecked)
{
    Rng rng(9);
    EXPECT_DEATH(makeRandomConnectedGraph(10, 8, rng), "few edges");
    EXPECT_DEATH(makeRandomConnectedGraph(10, 46, rng), "pairs");
}

TEST(TopologiesTest, TwoTierFabricShape)
{
    // 10 servers in racks of 4 -> 3 ToR switches + 1 core.
    const auto g = makeTwoTierFabric(10, 4);
    EXPECT_EQ(g.numVertices(), 14u);
    EXPECT_TRUE(g.isConnected());
    // Every server leaf has degree 1.
    for (std::size_t s = 0; s < 10; ++s)
        EXPECT_EQ(g.degree(s), 1u);
    // First ToR connects 4 servers + core.
    EXPECT_EQ(g.degree(10), 5u);
    // Core connects the 3 ToRs.
    EXPECT_EQ(g.degree(13), 3u);
}

TEST(TopologiesTest, AverageDegreeGrowsWithEdges)
{
    Rng rng(3);
    const auto sparse = makeConnectedErdosRenyi(40, 45, rng);
    const auto dense = makeConnectedErdosRenyi(40, 200, rng);
    EXPECT_LT(sparse.averageDegree(), dense.averageDegree());
}

TEST(TopologiesTest, HealableRingWiresSparesOnTop)
{
    Rng rng(7);
    std::vector<std::pair<std::size_t, std::size_t>> spares;
    const auto g = makeHealableRing(16, 4, 6, rng, &spares);
    EXPECT_EQ(g.numEdges(), 16u + 4u + 6u);
    ASSERT_EQ(spares.size(), 6u);
    for (const auto &[u, v] : spares) {
        EXPECT_LT(u, v); // canonical orientation
        EXPECT_TRUE(g.hasEdge(u, v));
    }
    EXPECT_TRUE(g.isConnected());
    // Determinism: the same seed wires the same spares.
    Rng rng2(7);
    std::vector<std::pair<std::size_t, std::size_t>> spares2;
    makeHealableRing(16, 4, 6, rng2, &spares2);
    EXPECT_EQ(spares, spares2);
}

TEST(TopologiesTest, HealableRingValidation)
{
    Rng rng(8);
    EXPECT_DEATH(makeHealableRing(8, 2, 2, rng, nullptr), "spare");
    std::vector<std::pair<std::size_t, std::size_t>> spares;
    // 8 nodes: ring 8 + chords + spares can't exceed C(8,2) - 8.
    EXPECT_DEATH(makeHealableRing(8, 10, 11, rng, &spares), "");
}

TEST(TopologiesTest, RepairProposalsBridgeComponents)
{
    // Path 0-1-2-3 with edge {1,2} down, plus disabled candidates
    // {0,3} (bridges) and {0,1} (redundant, already live).
    using Edge = std::pair<std::size_t, std::size_t>;
    const std::vector<GraphEdge> overlay = {
        {0, 1}, {1, 2}, {2, 3}, {0, 3}};
    const std::vector<std::uint8_t> candidate = {0, 0, 0, 1};
    const std::vector<std::uint8_t> alive = {1, 1, 1, 1};
    const std::vector<std::uint32_t> comp = {0, 0, 1, 1};
    const std::vector<std::size_t> deg = {1, 1, 1, 1};
    const auto picks =
        proposeOverlayRepairs(overlay, candidate, alive, comp,
                              /*num_comps=*/2, deg,
                              /*degree_floor=*/1);
    ASSERT_EQ(picks.size(), 1u);
    EXPECT_EQ(picks[0], (Edge{0, 3}));
}

TEST(TopologiesTest, RepairProposalsTopUpDegreeFloor)
{
    // Connected triangle 0-1-2 where node 3 hangs off node 0 by a
    // single live edge; a spare {1, 3} brings it to the floor.
    using Edge = std::pair<std::size_t, std::size_t>;
    const std::vector<GraphEdge> overlay = {
        {0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 3}};
    const std::vector<std::uint8_t> candidate = {0, 0, 0, 0, 1};
    const std::vector<std::uint8_t> alive = {1, 1, 1, 1};
    const std::vector<std::uint32_t> comp = {0, 0, 0, 0};
    const std::vector<std::size_t> deg = {3, 2, 2, 1};
    const auto picks =
        proposeOverlayRepairs(overlay, candidate, alive, comp,
                              /*num_comps=*/1, deg,
                              /*degree_floor=*/2);
    ASSERT_EQ(picks.size(), 1u);
    EXPECT_EQ(picks[0], (Edge{1, 3}));
}

TEST(TopologiesTest, RepairProposalsRespectCapacity)
{
    // Two components but no candidate that bridges them: the
    // healer proposes nothing rather than something wrong.
    const std::vector<GraphEdge> overlay = {{0, 1}, {2, 3}, {0, 2}};
    const std::vector<std::uint8_t> candidate = {0, 0, 0};
    const std::vector<std::uint8_t> alive = {1, 1, 1, 1};
    const std::vector<std::uint32_t> comp = {0, 0, 1, 1};
    const std::vector<std::size_t> deg = {1, 1, 1, 1};
    const auto picks =
        proposeOverlayRepairs(overlay, candidate, alive, comp, 2,
                              deg, 1);
    EXPECT_TRUE(picks.empty());
}

} // namespace
} // namespace dpc
