#include "cluster/sim.hh"

#include <algorithm>
#include <cmath>

#include "metrics/performance.hh"
#include "util/logging.hh"

namespace dpc {

namespace {

/**
 * Power model matching the benchmark utility boxes: full-activity
 * power spans 120 W at the lowest p-state to 220 W at the highest.
 * A 16-step ladder keeps the quantization loss of enforcing a
 * continuous cap with discrete DVFS states small (real RAPL
 * controllers additionally duty-cycle between states).
 */
ServerPowerModel
makeReferencePowerModel()
{
    auto ladder = defaultPStateLadder(16);
    const double s0 = ladder.front().dyn_scale;
    const double dyn = (220.0 - 120.0) / (1.0 - s0);
    const double idle = 220.0 - dyn;
    return ServerPowerModel(idle, dyn, std::move(ladder));
}

} // namespace

ClusterSim::ClusterSim(ClusterAssignment assignment, Graph topology,
                       double initial_budget,
                       DibaAllocator::Config diba_cfg,
                       ClusterSimConfig cfg)
    : ClusterSim(std::move(assignment),
                 std::make_unique<DibaAllocator>(
                     std::move(topology), diba_cfg),
                 initial_budget, cfg)
{
}

ClusterSim::ClusterSim(
    ClusterAssignment assignment,
    std::unique_ptr<IterativeAllocator> allocator,
    double initial_budget, ClusterSimConfig cfg)
    : assignment_(std::move(assignment)), cfg_(cfg),
      budget_(initial_budget),
      schedule_([initial_budget](double) { return initial_budget; }),
      alloc_(std::move(allocator)),
      alloc_rng_(cfg.seed ^ 0x517eb0ULL),
      power_model_(makeReferencePowerModel()),
      meter_(cfg.meter_noise_frac, cfg.seed ^ 0xabcdef),
      rng_(cfg.seed)
{
    DPC_ASSERT(!assignment_.empty(), "empty cluster");
    DPC_ASSERT(alloc_ != nullptr, "null allocator");
    diba_raw_ = dynamic_cast<DibaAllocator *>(alloc_.get());
    names_.reserve(assignment_.size());
    for (const auto &w : assignment_)
        names_.push_back(w.name);

    AllocationProblem prob{utilitiesOf(assignment_), budget_};
    alloc_->reset(prob);

    controllers_.reserve(assignment_.size());
    for (std::size_t i = 0; i < assignment_.size(); ++i) {
        PowerCapController::Config cc;
        cc.initial_pstate = 0;
        controllers_.emplace_back(power_model_, cc);
    }

    job_ends_.assign(assignment_.size(), 0.0);
    if (cfg_.mean_job_s > 0.0) {
        for (double &end : job_ends_)
            end = drawJobDuration(cfg_.mean_job_s, rng_);
    }
}

ClusterSim::ClusterSim(ClusterAssignment assignment, Graph topology,
                       double initial_budget,
                       DibaAllocator::Config diba_cfg, Options opts)
    : ClusterSim(std::move(assignment), std::move(topology),
                 initial_budget, diba_cfg, opts.sim)
{
    applyOptions(std::move(opts));
}

ClusterSim::ClusterSim(
    ClusterAssignment assignment,
    std::unique_ptr<IterativeAllocator> allocator,
    double initial_budget, Options opts)
    : ClusterSim(std::move(assignment), std::move(allocator),
                 initial_budget, opts.sim)
{
    applyOptions(std::move(opts));
}

void
ClusterSim::applyOptions(Options &&opts)
{
    DPC_ASSERT(!(opts.fault_plan && opts.recovery_plan),
               "fault_plan and recovery_plan are mutually "
               "exclusive");
    if (opts.budget_schedule)
        doSetBudgetSchedule(std::move(opts.budget_schedule));
    if (opts.cap_observer)
        doSetCapObserver(std::move(opts.cap_observer));
    if (opts.fault_plan)
        doSetFaultPlan(*opts.fault_plan);
    if (opts.recovery_plan)
        doSetRecoveryPlan(*opts.recovery_plan, opts.recovery);
}

const DibaAllocator &
ClusterSim::diba() const
{
    DPC_ASSERT(diba_raw_ != nullptr,
               "diba() on a non-DiBA-backed simulation");
    return *diba_raw_;
}

void
ClusterSim::doSetBudgetSchedule(std::function<double(double)> schedule)
{
    DPC_ASSERT(schedule != nullptr, "null budget schedule");
    schedule_ = std::move(schedule);
}

void
ClusterSim::doSetCapObserver(
    std::function<void(double, const std::vector<double> &)>
        observer)
{
    observer_ = std::move(observer);
}

void
ClusterSim::doSetFaultPlan(const FaultPlan &plan)
{
    DPC_ASSERT(recovery_ == nullptr,
               "fault plan after recovery plan");
    fault_timeline_ = plan.sortedEvents();
    next_fault_ = 0;
    channel_ = std::make_unique<LossyChannel>(plan.lossConfig(),
                                              plan.channelSeed());
    glitch_bias_.assign(assignment_.size(), 0.0);
    glitch_until_.assign(assignment_.size(), 0.0);
    if (diba_raw_ == nullptr) {
        warn("fault plan on a coordinator-backed simulation: "
             "gossip loss and churn events will be skipped");
    }
}

void
ClusterSim::doSetRecoveryPlan(const FaultPlan &plan,
                              RecoverySession::Config rcfg)
{
    DPC_ASSERT(diba_raw_ != nullptr,
               "recovery plan requires a DiBA-backed simulation");
    DPC_ASSERT(channel_ == nullptr,
               "recovery plan after fault plan");
    DPC_ASSERT(cfg_.diba_rounds_per_step > 0,
               "recovery plan needs diba_rounds_per_step > 0");
    // The session's round clock must cover the plan's time axis:
    // diba_rounds_per_step rounds per dt_s control step.
    rcfg.round_dt =
        cfg_.dt_s / static_cast<double>(cfg_.diba_rounds_per_step);
    // Transport and churn belong to the session's world; the
    // simulator keeps the metering-level glitch events for itself
    // (so the session never sees -- and never "skips" -- them).
    FaultPlan world_plan;
    world_plan.loss(plan.lossConfig()).seed(plan.channelSeed());
    fault_timeline_.clear();
    for (const FaultEvent &ev : plan.sortedEvents()) {
        switch (ev.kind) {
        case FaultKind::MeterGlitch:
            fault_timeline_.push_back(ev);
            break;
        case FaultKind::NodeCrash:
            world_plan.crashAt(ev.at, ev.node);
            break;
        case FaultKind::NodeRejoin:
            world_plan.rejoinAt(ev.at, ev.node);
            break;
        case FaultKind::LinkCut:
            world_plan.cutLinkAt(ev.at, ev.node, ev.peer);
            break;
        case FaultKind::LinkHeal:
            world_plan.healLinkAt(ev.at, ev.node, ev.peer);
            break;
        }
    }
    recovery_ = std::make_unique<RecoverySession>(*diba_raw_,
                                                  world_plan, rcfg);
    next_fault_ = 0;
    glitch_bias_.assign(assignment_.size(), 0.0);
    glitch_until_.assign(assignment_.size(), 0.0);
}

const RecoverySession &
ClusterSim::recovery() const
{
    DPC_ASSERT(recovery_ != nullptr,
               "recovery() without setRecoveryPlan");
    return *recovery_;
}

void
ClusterSim::applyFaults(double t)
{
    while (next_fault_ < fault_timeline_.size() &&
           fault_timeline_[next_fault_].at <= t) {
        const FaultEvent &ev = fault_timeline_[next_fault_++];
        if (ev.kind == FaultKind::MeterGlitch) {
            DPC_ASSERT(ev.node < glitch_bias_.size(),
                       "meter glitch node out of range");
            glitch_bias_[ev.node] = ev.value;
            glitch_until_[ev.node] = t + ev.duration;
            continue;
        }
        if (diba_raw_ == nullptr) {
            warn("skipping DiBA fault event at t = ", ev.at,
                 " (allocator is not DiBA)");
            ++fault_events_skipped_;
            continue;
        }
        switch (ev.kind) {
        case FaultKind::NodeCrash:
            if (diba_raw_->isActive(ev.node) &&
                diba_raw_->numActive() > 1) {
                diba_raw_->failNode(ev.node);
            } else {
                warn("skipping crash of node ", ev.node);
                ++fault_events_skipped_;
            }
            break;
        case FaultKind::NodeRejoin:
            if (!diba_raw_->isActive(ev.node)) {
                diba_raw_->joinNode(ev.node);
            } else {
                warn("skipping rejoin of node ", ev.node);
                ++fault_events_skipped_;
            }
            break;
        case FaultKind::LinkCut:
            if (diba_raw_->edgeEnabled(ev.node, ev.peer)) {
                diba_raw_->setEdgeEnabled(ev.node, ev.peer, false);
            } else {
                warn("skipping cut of link {", ev.node, ", ",
                     ev.peer, "}");
                ++fault_events_skipped_;
            }
            break;
        case FaultKind::LinkHeal:
            if (!diba_raw_->edgeEnabled(ev.node, ev.peer)) {
                diba_raw_->setEdgeEnabled(ev.node, ev.peer, true);
            } else {
                warn("skipping heal of link {", ev.node, ", ",
                     ev.peer, "}");
                ++fault_events_skipped_;
            }
            break;
        case FaultKind::MeterGlitch:
            break; // handled above
        }
    }
}

void
ClusterSim::maybeChurn(double t)
{
    if (cfg_.mean_job_s <= 0.0)
        return;
    const auto &suite = npbHpccBenchmarks();
    for (std::size_t i = 0; i < assignment_.size(); ++i) {
        if (job_ends_[i] > t)
            continue;
        const auto &b = rng_.choice(suite);
        assignment_[i] = {b.name, b.llc, b.utilityPtr()};
        names_[i] = b.name;
        alloc_->setUtility(i, assignment_[i].utility);
        job_ends_[i] = t + drawJobDuration(cfg_.mean_job_s, rng_);
    }
}

std::vector<double>
ClusterSim::computeCaps()
{
    if (cfg_.policy == SimPolicy::Diba) {
        // Self-healing runs hand every allocator round to the
        // RecoverySession (world events, detection, repair,
        // re-federation, watchdog, audit all happen in there).
        if (recovery_) {
            for (std::size_t r = 0; r < cfg_.diba_rounds_per_step;
                 ++r)
                recovery_->stepRound();
            return alloc_->result().power;
        }
        // Fault runs route every DiBA round through the lossy
        // channel and audit the invariants once per control step;
        // clean runs drive the scheme-agnostic stepwise protocol.
        if (channel_ && diba_raw_ != nullptr) {
            net::LoopbackTransport loopback;
            for (std::size_t r = 0; r < cfg_.diba_rounds_per_step;
                 ++r)
                diba_raw_->stepWithTransport(loopback, channel_.get());
            checker_.check(*diba_raw_);
        } else {
            for (std::size_t r = 0; r < cfg_.diba_rounds_per_step;
                 ++r) {
                if (cfg_.converge_early && alloc_->converged())
                    break;
                alloc_->step(alloc_rng_);
            }
        }
        return alloc_->result().power;
    }
    // Uniform baseline: equal share clamped into every box.
    const double share =
        budget_ / static_cast<double>(assignment_.size());
    std::vector<double> caps;
    caps.reserve(assignment_.size());
    for (const auto &w : assignment_)
        caps.push_back(w.utility->clampPower(share));
    return caps;
}

std::vector<ClusterSample>
ClusterSim::run(double duration_s)
{
    DPC_ASSERT(duration_s > 0.0 && cfg_.dt_s > 0.0,
               "bad simulation horizon");
    const auto steps =
        static_cast<std::size_t>(std::ceil(duration_s / cfg_.dt_s));
    std::vector<ClusterSample> out;
    out.reserve(steps);

    for (std::size_t s = 0; s < steps; ++s) {
        const double t = static_cast<double>(s) * cfg_.dt_s;

        applyFaults(t);
        const double b = schedule_(t);
        if (b != budget_) {
            const double delta = b - budget_;
            budget_ = b;
            // Warm-start mode re-enters from the standing
            // allocation (for DiBA, result().power is the live
            // state, so its converged estimate spread survives the
            // step); the legacy path announces the budget alone.
            if (cfg_.warm_start)
                alloc_->warmStart(alloc_->result(), delta);
            else
                alloc_->setBudget(b);
        }
        maybeChurn(t);

        const auto caps = computeCaps();

        ClusterSample sample;
        sample.t = t;
        sample.budget = budget_;
        std::vector<double> anps;
        anps.reserve(assignment_.size());
        for (std::size_t i = 0; i < assignment_.size(); ++i) {
            // A crashed server's cap is withdrawn entirely: it is
            // powered off, draws nothing, and drops out of the
            // SNP average until it rejoins.
            if (diba_raw_ != nullptr && !diba_raw_->isActive(i))
                continue;
            auto &ctl = controllers_[i];
            ctl.setCap(caps[i]);
            const double drawn =
                power_model_.power(ctl.pstate(), 1.0);
            double measured = meter_.read(drawn);
            // Active glitch windows bias this node's reading; the
            // cap controller reacts to the corrupted value, which
            // is exactly the failure mode being studied.
            if (!glitch_bias_.empty() && glitch_until_[i] > t)
                measured *= 1.0 + glitch_bias_[i];
            ctl.engage(measured, 1.0);
            const double now =
                power_model_.power(ctl.pstate(), 1.0);
            sample.allocated_power += caps[i];
            sample.consumed_power += now;
            const UtilityFunction &u = *assignment_[i].utility;
            const double operating = std::min(now, caps[i]);
            anps.push_back(anp(u, operating));
        }
        sample.snp = snpArithmetic(anps);
        out.push_back(sample);
        if (observer_)
            observer_(t, caps);
    }
    return out;
}

} // namespace dpc
