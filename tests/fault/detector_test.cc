#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "fault/detector.hh"

namespace dpc {
namespace {

using Overlay = std::vector<GraphEdge>;

/** Triangle overlay: every node has degree 2. */
Overlay
triangle()
{
    return {{0, 1}, {1, 2}, {0, 2}};
}

/** One observation round where `missing` edges miss and the rest
 * deliver. */
void
round(FailureDetector &det, const Overlay &overlay,
      const std::vector<std::size_t> &missing)
{
    det.beginRound();
    for (std::size_t id = 0; id < overlay.size(); ++id) {
        bool miss = false;
        for (std::size_t m : missing)
            miss |= m == id;
        det.observeEdge(id, !miss);
    }
    det.endRound();
}

TEST(FailureDetectorTest, CleanRoundsRaiseNothing)
{
    const auto overlay = triangle();
    FailureDetector det(3, overlay);
    for (int r = 0; r < 50; ++r)
        round(det, overlay, {});
    EXPECT_EQ(det.stats().node_suspicions, 0u);
    EXPECT_EQ(det.stats().edge_suspicions, 0u);
    for (std::size_t v = 0; v < 3; ++v)
        EXPECT_FALSE(det.nodeSuspected(v));
}

TEST(FailureDetectorTest, DeadNodeFiresNodeVerdictBeforeEdgeCuts)
{
    const auto overlay = triangle();
    FailureDetector::Config cfg;
    cfg.node_suspect_after = 4;
    cfg.edge_suspect_after = 8;
    FailureDetector det(3, overlay, cfg);
    // Node 2 dies: edges {1,2} and {0,2} miss every round.
    for (int r = 0; r < 3; ++r) {
        round(det, overlay, {1, 2});
        EXPECT_FALSE(det.nodeSuspected(2));
    }
    round(det, overlay, {1, 2});
    EXPECT_TRUE(det.nodeSuspected(2));
    ASSERT_EQ(det.newlyDeadNodes().size(), 1u);
    EXPECT_EQ(det.newlyDeadNodes()[0], 2u);
    // The node verdict landed before any per-edge suspicion.
    EXPECT_EQ(det.stats().edge_suspicions, 0u);
    EXPECT_FALSE(det.nodeSuspected(0));
    EXPECT_FALSE(det.nodeSuspected(1));
}

TEST(FailureDetectorTest, SingleCutLinkIsAnEdgeVerdictOnly)
{
    const auto overlay = triangle();
    FailureDetector::Config cfg;
    cfg.node_suspect_after = 4;
    cfg.edge_suspect_after = 6;
    FailureDetector det(3, overlay, cfg);
    // Only edge {0,1} misses; both endpoints keep delivering on
    // their other edge, so no node streak ever forms.
    for (int r = 0; r < 5; ++r)
        round(det, overlay, {0});
    EXPECT_FALSE(det.edgeSuspected(0));
    round(det, overlay, {0});
    EXPECT_TRUE(det.edgeSuspected(0));
    ASSERT_EQ(det.newlySuspectedEdges().size(), 1u);
    EXPECT_EQ(det.newlySuspectedEdges()[0], 0u);
    EXPECT_EQ(det.stats().node_suspicions, 0u);
}

TEST(FailureDetectorTest, HysteresisClearsAFalsePositive)
{
    const auto overlay = triangle();
    FailureDetector::Config cfg;
    cfg.node_suspect_after = 2;
    cfg.edge_suspect_after = 4;
    cfg.trust_after = 3;
    FailureDetector det(3, overlay, cfg);
    // A short outage of node 2's edges trips the aggressive
    // detector...
    round(det, overlay, {1, 2});
    round(det, overlay, {1, 2});
    ASSERT_TRUE(det.nodeSuspected(2));
    EXPECT_EQ(det.stats().node_suspicions, 1u);
    // ...then deliveries resume.  One good round is not enough
    // (trust_after = 3)...
    round(det, overlay, {});
    round(det, overlay, {});
    EXPECT_TRUE(det.nodeSuspected(2));
    EXPECT_TRUE(det.newlyAliveNodes().empty());
    // ...the third clears the verdict.
    round(det, overlay, {});
    EXPECT_FALSE(det.nodeSuspected(2));
    ASSERT_EQ(det.newlyAliveNodes().size(), 1u);
    EXPECT_EQ(det.newlyAliveNodes()[0], 2u);
    EXPECT_EQ(det.stats().node_recoveries, 1u);
}

TEST(FailureDetectorTest, EdgeTrustRecoversWithHysteresis)
{
    const auto overlay = triangle();
    FailureDetector::Config cfg;
    cfg.edge_suspect_after = 3;
    cfg.trust_after = 2;
    FailureDetector det(3, overlay, cfg);
    for (int r = 0; r < 3; ++r)
        round(det, overlay, {2});
    ASSERT_TRUE(det.edgeSuspected(2));
    round(det, overlay, {});
    EXPECT_TRUE(det.edgeSuspected(2));
    round(det, overlay, {});
    EXPECT_FALSE(det.edgeSuspected(2));
    ASSERT_EQ(det.newlyTrustedEdges().size(), 1u);
    EXPECT_EQ(det.newlyTrustedEdges()[0], 2u);
}

TEST(FailureDetectorTest, UnobservedEdgesKeepTheirStreaks)
{
    const auto overlay = triangle();
    FailureDetector::Config cfg;
    cfg.edge_suspect_after = 4;
    FailureDetector det(3, overlay, cfg);
    // Two missing rounds, then rounds where edge 0 is simply not
    // observed: the streak must neither advance nor reset.
    round(det, overlay, {0});
    round(det, overlay, {0});
    for (int r = 0; r < 10; ++r) {
        det.beginRound();
        det.observeEdge(1, true);
        det.observeEdge(2, true);
        det.endRound();
    }
    EXPECT_FALSE(det.edgeSuspected(0));
    // Two more misses complete the original streak of 4.
    round(det, overlay, {0});
    round(det, overlay, {0});
    EXPECT_TRUE(det.edgeSuspected(0));
}

TEST(FailureDetectorTest, IsolatedNodeGathersNoEvidence)
{
    // A node none of whose edges were observed this round must not
    // accrue an all-miss streak (absence of evidence).
    const Overlay overlay = {{0, 1}};
    FailureDetector::Config cfg;
    cfg.node_suspect_after = 2;
    FailureDetector det(3, overlay, cfg); // node 2 has no edges
    for (int r = 0; r < 20; ++r)
        round(det, overlay, {});
    EXPECT_FALSE(det.nodeSuspected(2));
}

TEST(FailureDetectorTest, CalibratedThresholdsScaleWithLossAndDegree)
{
    // Heavier loss or lower degree needs longer streaks for the
    // same false-positive tolerance.
    const auto light =
        FailureDetector::Config::calibrated(4, 0.05, 1e-9);
    const auto heavy =
        FailureDetector::Config::calibrated(4, 0.40, 1e-9);
    const auto sparse =
        FailureDetector::Config::calibrated(2, 0.40, 1e-9);
    EXPECT_LE(light.node_suspect_after, heavy.node_suspect_after);
    EXPECT_LE(heavy.node_suspect_after, sparse.node_suspect_after);
    EXPECT_GE(light.node_suspect_after, 3u);
    EXPECT_LE(sparse.node_suspect_after, 64u);
    // Edge threshold stays above the node threshold so a dead node
    // reads as one node-death, not degree-many edge cuts.
    EXPECT_GT(heavy.edge_suspect_after, heavy.node_suspect_after);
}

TEST(FailureDetectorTest, ObserveOutsideRoundPanics)
{
    const auto overlay = triangle();
    FailureDetector det(3, overlay);
    EXPECT_DEATH(det.observeEdge(0, true), "outside a round");
}

} // namespace
} // namespace dpc
