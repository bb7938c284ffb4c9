/**
 * @file
 * Convergence watchdog: detect a stalled or diverging DiBA run and
 * escalate recovery actions in stages.
 *
 * DiBA's round dynamics normally contract: the per-round residual
 * (max |dp| moved) decays geometrically once the slack transport
 * settles.  Faults can break that picture -- debt pinned inside a
 * floor-clamped region, a partition fragmented mid-reallocation, a
 * barrier annealed shut before the transport finished -- and the
 * protocol then grinds without progress while still honoring the
 * budget.  The watchdog watches two signals over fixed windows of
 * rounds:
 *
 *  - residual decay: a healthy run keeps setting new best-ever
 *    residuals, however slowly (annealed tails contract by well
 *    under a percent per round, so window-over-window decay ratios
 *    misread them as stalls).  The watchdog instead tracks the best
 *    residual since the last action and counts a round as progress
 *    only when it beats that best by the relative margin
 *    `1 - decay_factor`; a full window without one qualifying
 *    improvement, while still above the allocator's tolerance, is a
 *    stall.
 *  - estimate-spread oscillation: the spread max(e) - min(e) over
 *    active nodes flipping direction more than half the window's
 *    rounds while the residual is still above tolerance marks a
 *    limit cycle rather than convergence.  Sub-tolerance wobble of
 *    the spread is ignored: only swings larger than the allocator's
 *    fixed-point tolerance count as flips.
 *
 * Either symptom escalates one stage on the recovery ladder:
 *
 *   1. re-seed     -- DibaAllocator::reseedEquilibrium(): every
 *                     live component is re-seeded at the barrier
 *                     equilibrium of the budget it holds (the
 *                     water-level seed), so a settled cluster stays
 *                     settled; a component the seed refuses has its
 *                     estimates equalized and its barriers reheated.
 *   2. reheat      -- DibaAllocator::reheat(): barriers back to
 *                     eta_initial, frontier reheated; re-opens the
 *                     slack transport pipe.
 *   3. fallback    -- solve each live component's reduced problem
 *                     with CentralizedAllocator (through the
 *                     IterativeAllocator::allocate() wrapper) or
 *                     HierarchicalAllocator against the budget the
 *                     component holds, shaved by `fallback_margin`
 *                     of its headroom, and adopt the caps via
 *                     DibaAllocator::adoptCaps() -- conservation
 *                     and the budget guarantee survive by
 *                     construction.
 *
 * A window that converges (residual below tolerance) resets the
 * ladder; external control events should call noteDisturbance() so
 * churn-induced transients are not misread as stalls.
 */

#ifndef DPC_ALLOC_WATCHDOG_HH
#define DPC_ALLOC_WATCHDOG_HH

#include <cstddef>
#include <limits>

#include "alloc/diba.hh"

namespace dpc {

/** Stall/divergence detector with a staged recovery ladder. */
class ConvergenceWatchdog
{
  public:
    enum class Action
    {
        None,
        Reseed,
        Reheat,
        Fallback,
    };

    enum class FallbackScheme
    {
        Centralized,
        Hierarchical,
    };

    struct Config
    {
        /** Rounds per evaluation window.  The default is a
         * last-resort horizon: healthy DiBA runs plateau for long
         * stretches while the barrier anneals (the residual can
         * rise for a hundred rounds and still converge), so the
         * watchdog must not out-guess the annealing schedule. */
        std::size_t window = 96;
        /** A round counts as progress only when its residual beats
         * the best since the last action by the relative margin
         * `1 - decay_factor`; a full window without one such
         * improvement is a stall. */
        double decay_factor = 0.995;
        /** Spread-direction flips above this fraction of the window
         * mark oscillation.  A limit cycle flips nearly every
         * round; healthy transport wobbles far below this. */
        double flip_frac = 0.75;
        /** Stage-3 reduced-problem solver. */
        FallbackScheme fallback = FallbackScheme::Centralized;
        /** Fraction of each component's budget headroom withheld
         * from the fallback solve so the adopted caps keep strict
         * slack (e < 0) for the rounds that follow. */
        double fallback_margin = 0.01;
        /** Rack size when fallback == Hierarchical. */
        std::size_t hierarchical_rack = 32;
    };

    struct Stats
    {
        std::size_t rounds = 0;
        std::size_t windows = 0;
        std::size_t reheats = 0;
        std::size_t reseeds = 0;
        std::size_t fallbacks = 0;
    };

    ConvergenceWatchdog();
    explicit ConvergenceWatchdog(Config cfg);

    /**
     * Feed one round's progress metric (the return of
     * stepWithTransport/iterate) and let the watchdog act on the
     * allocator if the ladder fires.  Returns the action taken
     * (Action::None almost always).
     */
    Action observe(DibaAllocator &diba, double moved);

    /**
     * An external control event happened (churn applied, link cut
     * or healed, budget re-federated): restart the windows and the
     * escalation ladder so the transient is not misread as a
     * stall.
     */
    void noteDisturbance();

    const Stats &stats() const { return stats_; }

    /** Current ladder stage (0 = calm). */
    std::size_t stage() const { return stage_; }

    const Config &config() const { return cfg_; }

  private:
    /** Evaluate a completed window; escalate if it stalled. */
    Action evaluate(DibaAllocator &diba);

    /** Apply the ladder action for the (already bumped) stage. */
    Action apply(DibaAllocator &diba);

    /** Solve each live component's reduced problem and adopt. */
    void applyFallback(DibaAllocator &diba);

    /** Clear the in-flight window accumulators. */
    void clearWindow();

    Config cfg_;
    Stats stats_;
    std::size_t stage_ = 0;

    // ---- window accumulators ------------------------------------
    std::size_t in_window_ = 0;
    double win_moved_min_ = std::numeric_limits<double>::infinity();
    /** Best residual since the last action/disturbance. */
    double best_moved_ = std::numeric_limits<double>::infinity();
    /** Rounds since a qualifying improvement of best_moved_. */
    std::size_t since_improve_ = 0;
    double last_spread_ = 0.0;
    double last_dspread_ = 0.0;
    std::size_t flips_ = 0;
    bool have_spread_ = false;
};

} // namespace dpc

#endif // DPC_ALLOC_WATCHDOG_HH
