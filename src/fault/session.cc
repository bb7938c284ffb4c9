#include "fault/session.hh"

#include "util/logging.hh"

namespace dpc {

FaultSession::FaultSession(DibaAllocator &diba,
                           const FaultPlan &plan)
    : FaultSession(diba, plan, Config())
{
}

FaultSession::FaultSession(DibaAllocator &diba,
                           const FaultPlan &plan, Config cfg)
    : diba_(diba), cfg_(cfg), timeline_(plan.sortedEvents()),
      channel_(plan.lossConfig(), plan.channelSeed()),
      checker_(cfg.checker)
{
    DPC_ASSERT(cfg_.round_dt > 0.0, "non-positive round_dt");
}

bool
FaultSession::apply(const FaultEvent &ev)
{
    switch (ev.kind) {
    case FaultKind::NodeCrash:
        if (!diba_.isActive(ev.node) || diba_.numActive() <= 1) {
            warn("skipping crash of node ", ev.node,
                 " (already dead or last survivor)");
            return false;
        }
        diba_.failNode(ev.node);
        return true;
    case FaultKind::NodeRejoin:
        if (diba_.isActive(ev.node)) {
            warn("skipping rejoin of node ", ev.node,
                 " (already active)");
            return false;
        }
        diba_.joinNode(ev.node);
        return true;
    case FaultKind::LinkCut:
        if (!diba_.edgeEnabled(ev.node, ev.peer)) {
            warn("skipping cut of link {", ev.node, ", ", ev.peer,
                 "} (already cut)");
            return false;
        }
        diba_.setEdgeEnabled(ev.node, ev.peer, false);
        return true;
    case FaultKind::LinkHeal:
        if (diba_.edgeEnabled(ev.node, ev.peer)) {
            warn("skipping heal of link {", ev.node, ", ", ev.peer,
                 "} (not cut)");
            return false;
        }
        diba_.setEdgeEnabled(ev.node, ev.peer, true);
        return true;
    case FaultKind::MeterGlitch:
        // Control-loop fault; nothing to do at the allocator level.
        return false;
    }
    return false;
}

double
FaultSession::stepRound()
{
    while (next_event_ < timeline_.size() &&
           timeline_[next_event_].at <= now_) {
        if (apply(timeline_[next_event_])) {
            ++applied_;
        } else {
            ++skipped_;
            ++skipped_by_kind_[static_cast<std::size_t>(
                timeline_[next_event_].kind)];
        }
        ++next_event_;
    }
    net::LoopbackTransport loopback;
    const double moved = diba_.stepWithTransport(loopback, &channel_);
    if (cfg_.check_invariants)
        checker_.check(diba_);
    now_ += cfg_.round_dt;
    return moved;
}

std::size_t
FaultSession::run(std::size_t rounds)
{
    std::size_t quiet = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        // Proxy only; the allocator keeps its own convergence
        // accounting.
        if (stepRound() < diba_.config().tolerance)
            ++quiet;
    }
    return quiet;
}

} // namespace dpc
