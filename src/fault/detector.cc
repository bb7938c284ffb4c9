#include "fault/detector.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace dpc {

FailureDetector::Config
FailureDetector::Config::calibrated(std::size_t min_degree, double worst_loss,
                                    double fp_tolerance)
{
    DPC_ASSERT(min_degree >= 1, "calibrated: degree must be positive");
    DPC_ASSERT(worst_loss >= 0.0 && worst_loss < 1.0,
               "calibrated: loss rate must be in [0, 1)");
    DPC_ASSERT(fp_tolerance > 0.0 && fp_tolerance < 1.0,
               "calibrated: tolerance must be in (0, 1)");
    Config cfg;
    // An alive node all-misses a round with probability ~ q^d; a
    // streak of k rounds has probability ~ (q^d)^k.  Pick the
    // smallest k with (q^d)^k <= tol.  Burst loss correlates rounds,
    // so floor the result instead of trusting independence fully.
    const double q = std::max(worst_loss, 1e-6);
    const double per_round = std::pow(q, static_cast<double>(min_degree));
    const double k = std::ceil(std::log(fp_tolerance) / std::log(per_round));
    cfg.node_suspect_after = static_cast<std::size_t>(
        std::clamp(k, 3.0, 64.0));
    cfg.edge_suspect_after = cfg.node_suspect_after * 2;
    cfg.trust_after = 2;
    return cfg;
}

FailureDetector::FailureDetector(
    std::size_t num_nodes,
    const std::vector<GraphEdge> &overlay)
    : FailureDetector(num_nodes, overlay, Config{})
{
}

FailureDetector::FailureDetector(
    std::size_t num_nodes,
    const std::vector<GraphEdge> &overlay,
    Config cfg)
    : cfg_(cfg), overlay_(overlay)
{
    DPC_ASSERT(cfg_.node_suspect_after >= 1 && cfg_.edge_suspect_after >= 1 &&
                   cfg_.trust_after >= 1,
               "detector thresholds must be positive");
    if (cfg_.node_suspect_after >= cfg_.edge_suspect_after)
        warn("detector: node_suspect_after >= edge_suspect_after; a dead "
             "node will be misread as per-edge cuts first");
    for (const auto &[u, v] : overlay_)
        DPC_ASSERT(u < num_nodes && v < num_nodes && u != v,
                   "detector: overlay edge endpoint out of range");
    edge_miss_.assign(overlay_.size(), 0);
    edge_ok_.assign(overlay_.size(), 0);
    edge_bad_.assign(overlay_.size(), 0);
    node_allmiss_.assign(num_nodes, 0);
    node_ok_.assign(num_nodes, 0);
    node_dead_.assign(num_nodes, 0);
    saw_delivery_.assign(num_nodes, 0);
    saw_observation_.assign(num_nodes, 0);
}

void FailureDetector::beginRound()
{
    DPC_ASSERT(!in_round_, "detector: beginRound without endRound");
    in_round_ = true;
    std::fill(saw_delivery_.begin(), saw_delivery_.end(), 0);
    std::fill(saw_observation_.begin(), saw_observation_.end(), 0);
    newly_dead_.clear();
    newly_alive_.clear();
    newly_bad_edges_.clear();
    newly_good_edges_.clear();
}

void FailureDetector::observeEdge(std::size_t edge_id, bool delivered)
{
    DPC_ASSERT(in_round_, "detector: observeEdge outside a round");
    DPC_ASSERT(edge_id < overlay_.size(), "detector: edge id out of range");
    const auto [u, v] = overlay_[edge_id];
    saw_observation_[u] = 1;
    saw_observation_[v] = 1;
    if (delivered) {
        saw_delivery_[u] = 1;
        saw_delivery_[v] = 1;
        edge_miss_[edge_id] = 0;
        if (edge_bad_[edge_id]) {
            if (++edge_ok_[edge_id] >= cfg_.trust_after) {
                edge_bad_[edge_id] = 0;
                edge_ok_[edge_id] = 0;
                newly_good_edges_.push_back(edge_id);
                ++stats_.edge_recoveries;
            }
        } else {
            edge_ok_[edge_id] = 0;
        }
    } else {
        edge_ok_[edge_id] = 0;
        if (!edge_bad_[edge_id] &&
            ++edge_miss_[edge_id] >= cfg_.edge_suspect_after) {
            edge_bad_[edge_id] = 1;
            edge_miss_[edge_id] = 0;
            newly_bad_edges_.push_back(edge_id);
            ++stats_.edge_suspicions;
        }
    }
}

void FailureDetector::endRound()
{
    DPC_ASSERT(in_round_, "detector: endRound without beginRound");
    in_round_ = false;
    ++stats_.rounds;
    for (std::size_t v = 0; v < node_dead_.size(); ++v) {
        if (!saw_observation_[v])
            continue; // isolated this round: no evidence either way
        if (saw_delivery_[v]) {
            node_allmiss_[v] = 0;
            if (node_dead_[v]) {
                if (++node_ok_[v] >= cfg_.trust_after) {
                    node_dead_[v] = 0;
                    node_ok_[v] = 0;
                    newly_alive_.push_back(v);
                    ++stats_.node_recoveries;
                }
            } else {
                node_ok_[v] = 0;
            }
        } else {
            node_ok_[v] = 0;
            if (!node_dead_[v] &&
                ++node_allmiss_[v] >= cfg_.node_suspect_after) {
                node_dead_[v] = 1;
                node_allmiss_[v] = 0;
                newly_dead_.push_back(v);
                ++stats_.node_suspicions;
            }
        }
    }
}

} // namespace dpc
