/**
 * @file
 * In-protocol failure detection from gossip pair fates.
 *
 * DiBA's only observable per round is which paired transfers
 * arrived: GossipChannel::fate() per overlay edge.  A crashed peer
 * drops every incident pair forever; a cut link drops one edge
 * forever; plain loss drops edges at random for a round or a burst.
 * The FailureDetector turns that raw signal into verdicts the
 * recovery layer can act on -- with no ground-truth access -- using
 * per-edge and per-node suspicion counters with hysteresis:
 *
 *  - edge level: `edge_suspect_after` consecutive missed pairs mark
 *    an edge suspected (candidate for an administrative cut);
 *    `trust_after` consecutive deliveries clear it again;
 *  - node level: a round in which *every* observed incident edge of
 *    a node misses increments its all-miss streak; `node_suspect_after`
 *    consecutive all-miss rounds declare the node dead.  One
 *    delivered incident pair resets the streak, and `trust_after`
 *    rounds with at least one delivery resurrect a dead verdict
 *    (the false-positive escape hatch).
 *
 * Thresholds encode a false-positive tolerance: with per-edge loss
 * rate q and live degree d, an alive node produces an all-miss
 * round with probability ~q^d, so a streak of k occurs with
 * probability ~q^(dk); Config::calibrated() picks the smallest k
 * meeting a caller-chosen tolerance.  node_suspect_after is kept
 * below edge_suspect_after so a genuinely dead node is detected as
 * one node-death instead of degree-many edge cuts.
 *
 * The detector assumes the driver observes every overlay edge once
 * per round (the allocator's own queries plus probes of the edges
 * the allocator believes dead); unobserved edges simply keep their
 * streaks.
 */

#ifndef DPC_FAULT_DETECTOR_HH
#define DPC_FAULT_DETECTOR_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hh"

namespace dpc {

/** Missed-pair failure detector with threshold + hysteresis. */
class FailureDetector
{
  public:
    struct Config
    {
        /** Consecutive all-miss rounds before a node is declared
         * dead.  Keep below edge_suspect_after. */
        std::size_t node_suspect_after = 8;
        /** Consecutive missed pairs before an edge is suspected. */
        std::size_t edge_suspect_after = 16;
        /** Consecutive good observations to clear a suspicion
         * (hysteresis; applies to both levels). */
        std::size_t trust_after = 2;

        /**
         * Derive thresholds from the deployment's worst expected
         * per-edge loss rate, the overlay's minimum live degree,
         * and an acceptable per-node-round false-positive
         * probability (e.g. 1e-9).
         */
        static Config calibrated(std::size_t min_degree,
                                 double worst_loss,
                                 double fp_tolerance);
    };

    struct Stats
    {
        std::size_t rounds = 0;
        std::size_t node_suspicions = 0; ///< alive -> dead verdicts
        std::size_t node_recoveries = 0; ///< dead -> alive verdicts
        std::size_t edge_suspicions = 0;
        std::size_t edge_recoveries = 0;
    };

    FailureDetector(
        std::size_t num_nodes,
        const std::vector<GraphEdge> &overlay);
    FailureDetector(
        std::size_t num_nodes,
        const std::vector<GraphEdge> &overlay,
        Config cfg);

    /** Begin a round of observations. */
    void beginRound();

    /** Record the fate of one overlay edge this round. */
    void observeEdge(std::size_t edge_id, bool delivered);

    /** Close the round: update streaks and verdict transitions. */
    void endRound();

    // ---- verdicts (stable between endRound calls) ---------------
    bool nodeSuspected(std::size_t v) const { return node_dead_[v] != 0; }
    bool edgeSuspected(std::size_t e) const { return edge_bad_[e] != 0; }

    // ---- transitions produced by the last endRound --------------
    /** Nodes newly declared dead, ascending. */
    const std::vector<std::size_t> &newlyDeadNodes() const
    {
        return newly_dead_;
    }
    /** Dead-verdict nodes whose deliveries resumed, ascending. */
    const std::vector<std::size_t> &newlyAliveNodes() const
    {
        return newly_alive_;
    }
    /** Edges newly suspected, ascending edge id. */
    const std::vector<std::size_t> &newlySuspectedEdges() const
    {
        return newly_bad_edges_;
    }
    /** Suspected edges whose deliveries resumed, ascending. */
    const std::vector<std::size_t> &newlyTrustedEdges() const
    {
        return newly_good_edges_;
    }

    const Stats &stats() const { return stats_; }
    const Config &config() const { return cfg_; }
    std::size_t numNodes() const { return node_dead_.size(); }
    std::size_t numEdges() const { return edge_bad_.size(); }

  private:
    Config cfg_;
    std::vector<GraphEdge> overlay_;

    // per-edge streaks
    std::vector<std::uint32_t> edge_miss_;
    std::vector<std::uint32_t> edge_ok_;
    std::vector<std::uint8_t> edge_bad_;

    // per-node streaks
    std::vector<std::uint32_t> node_allmiss_;
    std::vector<std::uint32_t> node_ok_;
    std::vector<std::uint8_t> node_dead_;

    // per-round scratch
    std::vector<std::uint8_t> saw_delivery_;
    std::vector<std::uint8_t> saw_observation_;
    bool in_round_ = false;

    std::vector<std::size_t> newly_dead_;
    std::vector<std::size_t> newly_alive_;
    std::vector<std::size_t> newly_bad_edges_;
    std::vector<std::size_t> newly_good_edges_;

    Stats stats_;
};

} // namespace dpc

#endif // DPC_FAULT_DETECTOR_HH
