#include "fault/recovery.hh"

#include <algorithm>
#include <cmath>

#include "graph/topologies.hh"
#include "util/logging.hh"

namespace dpc {

// ====================== GroundTruthChannel ======================

std::uint64_t
GroundTruthChannel::key(std::size_t u, std::size_t v)
{
    const std::uint64_t a = static_cast<std::uint64_t>(std::min(u, v));
    const std::uint64_t b = static_cast<std::uint64_t>(std::max(u, v));
    return (a << 32) | b;
}

GroundTruthChannel::GroundTruthChannel(LossyChannel::Config cfg,
                                       std::uint64_t seed,
                                       std::size_t num_nodes)
    : inner_(cfg, seed), up_(num_nodes, 1), nodes_up_(num_nodes)
{
}

void
GroundTruthChannel::beginRound(std::size_t num_edges)
{
    inner_.beginRound(num_edges);
}

EdgeFate
GroundTruthChannel::fate(std::size_t edge_id, std::size_t u,
                         std::size_t v)
{
    // A really-dead endpoint or severed link drops the pair before
    // the loss process is ever consulted -- no inner draw, matching
    // the allocator's dead-edge convention so trajectories stay
    // reproducible whatever the protocol currently believes.
    if (!up_[u] || !up_[v] || cut_.count(key(u, v))) {
        ++world_drops_;
        EdgeFate f;
        f.delivered = false;
        return f;
    }
    return inner_.fate(edge_id, u, v);
}

std::size_t
GroundTruthChannel::maxLag() const
{
    return inner_.maxLag();
}

bool
GroundTruthChannel::crashNode(std::size_t v)
{
    if (v >= up_.size() || !up_[v])
        return false;
    up_[v] = 0;
    --nodes_up_;
    return true;
}

bool
GroundTruthChannel::reviveNode(std::size_t v)
{
    if (v >= up_.size() || up_[v])
        return false;
    up_[v] = 1;
    ++nodes_up_;
    return true;
}

bool
GroundTruthChannel::cutLink(std::size_t u, std::size_t v)
{
    if (u >= up_.size() || v >= up_.size() || u == v)
        return false;
    return cut_.insert(key(u, v)).second;
}

bool
GroundTruthChannel::healLink(std::size_t u, std::size_t v)
{
    return cut_.erase(key(u, v)) > 0;
}

bool
GroundTruthChannel::nodeUp(std::size_t v) const
{
    return v < up_.size() && up_[v] != 0;
}

bool
GroundTruthChannel::linkUp(std::size_t u, std::size_t v) const
{
    return cut_.count(key(u, v)) == 0;
}

// ======================= RecoverySession ========================

namespace {

/** Forwards fates from the world and lets the detector see every
 * pair the allocator exchanged on, recording which edge ids the
 * round consumed so the session can probe the complement. */
class ObservingChannel : public GossipChannel
{
  public:
    ObservingChannel(GroundTruthChannel &world, FailureDetector &det,
                     std::vector<std::uint8_t> &queried)
        : world_(world), det_(det), queried_(queried)
    {
    }

    void beginRound(std::size_t num_edges) override
    {
        world_.beginRound(num_edges);
    }

    EdgeFate fate(std::size_t edge_id, std::size_t u,
                  std::size_t v) override
    {
        const EdgeFate f = world_.fate(edge_id, u, v);
        det_.observeEdge(edge_id, f.delivered);
        queried_[edge_id] = 1;
        return f;
    }

    std::size_t maxLag() const override { return world_.maxLag(); }

  private:
    GroundTruthChannel &world_;
    FailureDetector &det_;
    std::vector<std::uint8_t> &queried_;
};

} // namespace

RecoverySession::RecoverySession(DibaAllocator &diba,
                                 const FaultPlan &plan)
    : RecoverySession(diba, plan, Config{})
{
}

RecoverySession::RecoverySession(DibaAllocator &diba,
                                 const FaultPlan &plan, Config cfg)
    : diba_(diba), cfg_(std::move(cfg)),
      timeline_(plan.sortedEvents()),
      world_(plan.lossConfig(), plan.channelSeed(),
             diba.power().size()),
      detector_(diba.power().size(), diba.overlayEdges(),
                cfg_.detector),
      tracker_(diba.power().size()), watchdog_(cfg_.watchdog),
      checker_(cfg_.checker)
{
    DPC_ASSERT(!diba_.power().empty(),
               "RecoverySession needs a reset() allocator");
    DPC_ASSERT(cfg_.round_dt > 0.0,
               "round_dt must be positive seconds per round");

    const auto &overlay = diba_.overlayEdges();
    edge_status_.assign(overlay.size(), EdgeStatus::InUse);
    queried_.assign(overlay.size(), 0);

    // Park the pre-provisioned spares: disabled at start, invisible
    // to the exchange, enabled only by the healer.
    for (const auto &[u, v] : cfg_.spare_edges) {
        edge_status_[diba_.edgeId(u, v)] = EdgeStatus::Spare;
        if (diba_.edgeEnabled(u, v))
            diba_.setEdgeEnabled(u, v, false);
    }

    // Mirror the allocator's believed state into the tracker.
    const auto &mask = diba_.edgeEnabledMask();
    for (std::size_t i = 0; i < diba_.power().size(); ++i)
        if (!diba_.isActive(i))
            tracker_.nodeDown(i);
    for (std::size_t id = 0; id < overlay.size(); ++id)
        if (mask[id])
            tracker_.edgeUp(overlay[id].first, overlay[id].second);
    last_labels_version_ = tracker_.version();
}

void
RecoverySession::markDisturbance(bool protocol_visible)
{
    report_.last_disturbance_round = report_.rounds;
    recovered_since_disturbance_ = false;
    util_quiet_ = 0;
    // Only the protocol's own actions restart the watchdog ladder:
    // a world event it has not detected yet must not leak in.
    if (protocol_visible && cfg_.enable_watchdog)
        watchdog_.noteDisturbance();
}

void
RecoverySession::applyDueEvents()
{
    while (next_event_ < timeline_.size() &&
           timeline_[next_event_].at <= now_) {
        const FaultEvent &ev = timeline_[next_event_++];
        bool applied = false;
        switch (ev.kind) {
        case FaultKind::NodeCrash:
            applied = world_.crashNode(ev.node);
            break;
        case FaultKind::NodeRejoin:
            applied = world_.reviveNode(ev.node);
            break;
        case FaultKind::LinkCut:
            applied = world_.cutLink(ev.node, ev.peer);
            break;
        case FaultKind::LinkHeal:
            applied = world_.healLink(ev.node, ev.peer);
            break;
        case FaultKind::MeterGlitch:
            // Sensor-plane fault; nothing changes in the transport
            // world.  ClusterSim handles glitches at its own level.
            applied = false;
            break;
        }
        if (applied) {
            ++report_.events_applied;
            markDisturbance(false);
        } else {
            ++report_.events_skipped;
        }
    }
}

void
RecoverySession::probeUnqueriedEdges()
{
    // The allocator never queries fates for edges it believes dead
    // (cut links, edges of failed nodes), so without these probes a
    // suspicion could never clear -- no observation, no trust
    // recovery, no rejoin.  Ascending edge-id order keeps the
    // world's draw sequence deterministic.
    const auto &overlay = diba_.overlayEdges();
    for (std::size_t id = 0; id < overlay.size(); ++id) {
        if (queried_[id])
            continue;
        // Spares are parked, not suspected: probing them would feed
        // the detector fates for links nobody is using yet.
        if (edge_status_[id] == EdgeStatus::Spare)
            continue;
        const EdgeFate f =
            world_.fate(id, overlay[id].first, overlay[id].second);
        detector_.observeEdge(id, f.delivered);
    }
}

void
RecoverySession::applyVerdicts()
{
    const auto &overlay = diba_.overlayEdges();

    // Node deaths first: one node verdict explains all of its
    // incident misses at once, and failNode's slack hand-off wants
    // the edges still enabled.
    for (std::size_t v : detector_.newlyDeadNodes()) {
        if (!diba_.isActive(v))
            continue;
        if (diba_.numActive() <= 1) {
            warn("detector suspects the last active node ", v,
                 "; refusing to fail it");
            continue;
        }
        if (world_.nodeUp(v))
            ++report_.false_positive_nodes;
        diba_.failNode(v);
        tracker_.nodeDown(v);
        ++report_.nodes_failed;
        markDisturbance(true);
    }

    // Resurrections next, so edge re-trust below sees the endpoints
    // active again.
    for (std::size_t v : detector_.newlyAliveNodes()) {
        if (diba_.isActive(v))
            continue;
        diba_.joinNode(v);
        tracker_.nodeUp(v);
        ++report_.nodes_rejoined;
        markDisturbance(true);
    }

    // Administrative cuts for suspected edges between believed-live
    // nodes.  Edges of believed-dead nodes are already out of the
    // exchange; cutting them too would fight the rejoin path.
    for (std::size_t id : detector_.newlySuspectedEdges()) {
        if (edge_status_[id] != EdgeStatus::InUse)
            continue;
        const auto [u, v] = overlay[id];
        if (!diba_.isActive(u) || !diba_.isActive(v))
            continue;
        diba_.setEdgeEnabled(u, v, false);
        tracker_.edgeDown(u, v);
        edge_status_[id] = EdgeStatus::Suspect;
        ++report_.links_cut;
        if (world_.nodeUp(u) && world_.nodeUp(v) &&
            world_.linkUp(u, v))
            ++report_.false_positive_edges;
        markDisturbance(true);
    }

    // Suspicions cleared by the probes heal back into the overlay.
    for (std::size_t id : detector_.newlyTrustedEdges()) {
        if (edge_status_[id] != EdgeStatus::Suspect)
            continue;
        const auto [u, v] = overlay[id];
        if (!diba_.isActive(u) || !diba_.isActive(v))
            continue;
        diba_.setEdgeEnabled(u, v, true);
        tracker_.edgeUp(u, v);
        edge_status_[id] = EdgeStatus::InUse;
        ++report_.links_healed;
        markDisturbance(true);
    }
}

void
RecoverySession::healOverlay()
{
    const auto &overlay = diba_.overlayEdges();
    const auto &enabled = diba_.edgeEnabledMask();
    const std::size_t n = diba_.power().size();

    // Believed live degrees.
    std::vector<std::size_t> deg(n, 0);
    for (const auto &[u, v] : diba_.liveEdges()) {
        ++deg[u];
        ++deg[v];
    }

    const std::size_t k = tracker_.numComponents();
    bool degraded = k > 1;
    if (!degraded) {
        for (std::size_t i = 0; i < n && !degraded; ++i)
            if (diba_.isActive(i) && deg[i] < cfg_.degree_floor)
                degraded = true;
    }
    if (!degraded)
        return;

    std::vector<std::uint8_t> candidate(overlay.size(), 0);
    std::vector<std::uint8_t> alive(n, 0);
    for (std::size_t i = 0; i < n; ++i)
        alive[i] = diba_.isActive(i) ? 1 : 0;
    for (std::size_t id = 0; id < overlay.size(); ++id) {
        if (enabled[id] || edge_status_[id] != EdgeStatus::Spare)
            continue;
        if (detector_.edgeSuspected(id))
            continue;
        const auto [u, v] = overlay[id];
        if (alive[u] && alive[v])
            candidate[id] = 1;
    }

    const auto picks = proposeOverlayRepairs(
        overlay, candidate, alive, tracker_.labels(), k, deg,
        cfg_.degree_floor);
    for (const auto &[u, v] : picks) {
        const std::uint32_t id = diba_.edgeId(u, v);
        diba_.setEdgeEnabled(u, v, true);
        tracker_.edgeUp(u, v);
        edge_status_[id] = EdgeStatus::InUse;
        ++report_.repairs;
        markDisturbance(true);
    }
}

void
RecoverySession::refederate()
{
    const std::uint64_t ver = tracker_.version();
    const std::size_t k = tracker_.numComponents();
    bool need = ver != last_labels_version_;
    // Re-announce if the allocator dropped the federation behind
    // our back (setBudget clears it) while the overlay is still
    // fragmented.
    if (!need && k > 1 && !diba_.federationActive())
        need = true;
    if (!need)
        return;
    last_labels_version_ = ver;
    if (k == 0)
        return;
    const bool was_federated = diba_.federationActive();
    if (k == 1 && !was_federated)
        return; // nothing to dissolve, nothing to split
    diba_.refederateBudget(tracker_.labels(), k);
    ++report_.refederations;
    markDisturbance(true);
}

double
RecoverySession::stepRound()
{
    applyDueEvents();

    detector_.beginRound();
    std::fill(queried_.begin(), queried_.end(), 0);
    ObservingChannel chan(world_, detector_, queried_);
    net::LoopbackTransport loopback;
    const double moved = diba_.stepWithTransport(loopback, &chan);
    probeUnqueriedEdges();
    detector_.endRound();

    applyVerdicts();
    if (cfg_.enable_healing)
        healOverlay();
    if (cfg_.enable_refederation)
        refederate();
    if (cfg_.enable_watchdog)
        watchdog_.observe(diba_, moved);
    if (cfg_.check_invariants)
        checker_.check(diba_);

    // Mirror cumulative detector/watchdog counters into the report.
    report_.node_suspicions = detector_.stats().node_suspicions;
    report_.edge_suspicions = detector_.stats().edge_suspicions;
    report_.reheats = watchdog_.stats().reheats;
    report_.reseeds = watchdog_.stats().reseeds;
    report_.fallbacks = watchdog_.stats().fallbacks;

    ++report_.rounds;
    now_ += cfg_.round_dt;

    // "Recovered" is macroscopic.  Persistent channel loss keeps
    // the microscopic residual above the fixed-point tolerance
    // forever (dropped and stale pairs keep nudging power), so a
    // strict converged() verdict is unreachable under loss.  The
    // allocation has recovered once its total utility -- the sum of
    // the local r_i(p_i), no oracle involved -- holds steady.
    double util = 0.0;
    const std::vector<UtilityPtr> &us = diba_.utilities();
    const std::vector<double> &p = diba_.power();
    for (std::size_t i = 0; i < us.size(); ++i)
        if (diba_.isActive(i))
            util += us[i]->value(p[i]);
    const double eps =
        cfg_.recovery_util_eps * std::max(1.0, std::abs(last_util_));
    if (have_util_ && std::abs(util - last_util_) <= eps)
        ++util_quiet_;
    else
        util_quiet_ = 0;
    last_util_ = util;
    have_util_ = true;
    if (!recovered_since_disturbance_ &&
        util_quiet_ >= cfg_.recovery_quiet_rounds) {
        recovered_since_disturbance_ = true;
        report_.rounds_to_recover =
            report_.rounds - report_.last_disturbance_round;
    }
    return moved;
}

std::size_t
RecoverySession::run(std::size_t rounds)
{
    std::size_t quiet = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        if (stepRound() < diba_.config().tolerance)
            ++quiet;
    }
    return quiet;
}

} // namespace dpc
