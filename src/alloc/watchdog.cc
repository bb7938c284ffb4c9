#include "alloc/watchdog.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "alloc/centralized.hh"
#include "alloc/hierarchical.hh"
#include "util/logging.hh"

namespace dpc {

ConvergenceWatchdog::ConvergenceWatchdog()
    : ConvergenceWatchdog(Config{})
{
}

ConvergenceWatchdog::ConvergenceWatchdog(Config cfg) : cfg_(cfg)
{
    DPC_ASSERT(cfg_.window >= 4, "watchdog window too short");
    DPC_ASSERT(cfg_.decay_factor > 0.0 && cfg_.decay_factor <= 1.0,
               "watchdog decay factor must be in (0, 1]");
    DPC_ASSERT(cfg_.fallback_margin >= 0.0 && cfg_.fallback_margin < 1.0,
               "watchdog fallback margin must be in [0, 1)");
}

void
ConvergenceWatchdog::clearWindow()
{
    in_window_ = 0;
    win_moved_min_ = std::numeric_limits<double>::infinity();
    flips_ = 0;
    have_spread_ = false;
}

void
ConvergenceWatchdog::noteDisturbance()
{
    stage_ = 0;
    best_moved_ = std::numeric_limits<double>::infinity();
    since_improve_ = 0;
    clearWindow();
}

ConvergenceWatchdog::Action
ConvergenceWatchdog::observe(DibaAllocator &diba, double moved)
{
    ++stats_.rounds;
    win_moved_min_ = std::min(win_moved_min_, moved);

    // Progress = a new best residual by a real margin.  Annealed
    // tails contract slowly but keep setting new bests, so they
    // never read as stalls; a wedged or limit-cycling run does not.
    if (moved < cfg_.decay_factor * best_moved_) {
        best_moved_ = moved;
        since_improve_ = 0;
    } else {
        ++since_improve_;
    }

    // Estimate spread over active nodes, and its direction flips.
    // Swings at or below the fixed-point tolerance are noise, not
    // oscillation; they neither count nor re-arm the direction.
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    const std::vector<double> &e = diba.estimates();
    for (std::size_t i = 0; i < e.size(); ++i) {
        if (!diba.isActive(i))
            continue;
        lo = std::min(lo, e[i]);
        hi = std::max(hi, e[i]);
    }
    const double spread = hi >= lo ? hi - lo : 0.0;
    if (have_spread_) {
        const double d = spread - last_spread_;
        if (std::abs(d) > diba.config().tolerance) {
            if (d * last_dspread_ < 0.0)
                ++flips_;
            last_dspread_ = d;
        }
    } else {
        have_spread_ = true;
        last_dspread_ = 0.0;
    }
    last_spread_ = spread;

    if (++in_window_ < cfg_.window)
        return Action::None;
    return evaluate(diba);
}

ConvergenceWatchdog::Action
ConvergenceWatchdog::evaluate(DibaAllocator &diba)
{
    ++stats_.windows;
    const double tol = diba.config().tolerance;
    const double cur = win_moved_min_;
    const std::size_t cur_flips = flips_;
    clearWindow();

    if (cur < tol) {
        // Converging (or converged); the ladder relaxes.
        stage_ = 0;
        return Action::None;
    }
    const bool stalled = since_improve_ >= cfg_.window;
    const bool oscillating =
        cur_flips > static_cast<std::size_t>(
                        cfg_.flip_frac * static_cast<double>(cfg_.window));
    if (!stalled && !oscillating)
        return Action::None;

    stage_ = std::min<std::size_t>(stage_ + 1, 3);
    // The action perturbs the state; judge the next window against
    // a fresh baseline instead of the pre-action residual.
    best_moved_ = std::numeric_limits<double>::infinity();
    since_improve_ = 0;
    return apply(diba);
}

ConvergenceWatchdog::Action
ConvergenceWatchdog::apply(DibaAllocator &diba)
{
    switch (stage_) {
    case 1:
        diba.reseedEquilibrium();
        ++stats_.reseeds;
        return Action::Reseed;
    case 2:
        diba.reheat();
        ++stats_.reheats;
        return Action::Reheat;
    default:
        applyFallback(diba);
        ++stats_.fallbacks;
        return Action::Fallback;
    }
}

void
ConvergenceWatchdog::applyFallback(DibaAllocator &diba)
{
    std::vector<std::uint32_t> label;
    const std::size_t k = diba.liveComponents(label);
    const std::vector<double> held = diba.heldBudgets(label, k);
    std::vector<double> caps = diba.power();
    const std::vector<UtilityPtr> &us = diba.utilities();

    for (std::uint32_t j = 0; j < k; ++j) {
        std::vector<std::size_t> members;
        AllocationProblem sub;
        double min_p = 0.0;
        for (std::size_t i = 0; i < us.size(); ++i) {
            if (!diba.isActive(i) || label[i] != j)
                continue;
            members.push_back(i);
            sub.utilities.push_back(us[i]);
            min_p += us[i]->minPower();
        }
        // Shave the component's headroom so the adopted caps leave
        // strict slack; a component pinned at (or below) its power
        // floor has nothing to solve.
        const double headroom = held[j] - min_p;
        if (!(headroom > 0.0)) {
            warn("watchdog fallback: component ", j,
                 " holds no headroom; leaving its caps in place");
            continue;
        }
        sub.budget = min_p + (1.0 - cfg_.fallback_margin) * headroom;
        AllocationResult res;
        if (cfg_.fallback == FallbackScheme::Hierarchical) {
            HierarchicalAllocator::Config hc;
            hc.rack_size = cfg_.hierarchical_rack;
            res = HierarchicalAllocator(hc).allocate(sub);
        } else {
            res = CentralizedAllocator().allocate(sub);
        }
        for (std::size_t m = 0; m < members.size(); ++m)
            caps[members[m]] = res.power[m];
    }
    diba.adoptCaps(caps);
}

} // namespace dpc
