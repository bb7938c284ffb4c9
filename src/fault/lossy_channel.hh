/**
 * @file
 * Seedable lossy/delaying fate oracle for DiBA's gossip exchanges.
 *
 * LossyChannel decides, per overlay edge and per round, whether the
 * paired estimate exchange is delivered, dropped, or delivered
 * stale.  Two loss processes compose:
 *
 *  - i.i.d. loss: every queried pair drops with `drop_rate`;
 *  - burst (Gilbert-Elliott) loss: each edge carries a two-state
 *    good/bad Markov chain (enter/exit probabilities per round);
 *    while an edge is in the bad state its pairs drop with
 *    `burst_drop` instead of `drop_rate`, which models the
 *    correlated multi-round outages of a flaky link or a congested
 *    ToR port rather than independent packet loss.
 *
 * Delivered pairs go stale with `delay_rate`, with a lag drawn
 * uniformly from [1, max_lag] rounds; the allocator applies the
 * pair on the snapshot from that many rounds ago at both
 * endpoints (see net/transport.hh for why that conserves the
 * invariant sum).
 *
 * All draws come from one explicitly seeded Rng, consumed in the
 * allocator's canonical edge order (dead edges consume no draw), so
 * a (seed, fault-schedule) pair reproduces the identical trajectory
 * run-to-run.  A zero-config channel makes no draws and delivers
 * every pair fresh: routing a round through it is bitwise identical
 * to the plain round, which the fault tests use as the zero-fault
 * control.
 */

#ifndef DPC_FAULT_LOSSY_CHANNEL_HH
#define DPC_FAULT_LOSSY_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "net/transport.hh"
#include "util/rng.hh"

namespace dpc {

/** Seedable drop/burst/delay fate oracle (see file header). */
class LossyChannel : public GossipChannel
{
  public:
    struct Config
    {
        /** i.i.d. pair-drop probability in the good state. */
        double drop_rate = 0.0;
        /** Per-round P(good -> bad) of the burst chain; zero
         * disables the chain entirely (pure i.i.d. loss). */
        double burst_enter = 0.0;
        /** Per-round P(bad -> good). */
        double burst_exit = 0.25;
        /** Pair-drop probability while an edge is in the bad
         * state. */
        double burst_drop = 0.9;
        /** Probability a delivered pair arrives stale. */
        double delay_rate = 0.0;
        /** Maximum staleness in rounds (stale lags are uniform in
         * [1, max_lag]); zero disables delays. */
        std::size_t max_lag = 0;
    };

    /** Hard cap on Config::max_lag (each lag round pins one full
     * estimate snapshot in the allocator's history deque). */
    static constexpr std::size_t kMaxLagLimit = 4096;

    LossyChannel(Config cfg, std::uint64_t seed);

    void beginRound(std::size_t num_edges) override;

    EdgeFate fate(std::size_t edge_id, std::size_t u,
                  std::size_t v) override;

    std::size_t maxLag() const override { return cfg_.max_lag; }

    /** Lifetime transport counters (all rounds since creation). */
    struct Stats
    {
        std::uint64_t offered = 0;   ///< pairs queried
        std::uint64_t dropped = 0;   ///< pairs cancelled
        std::uint64_t stale = 0;     ///< pairs delivered late
    };

    const Stats &stats() const { return stats_; }

    /** Fraction of offered pairs that dropped (0 if none offered). */
    double lossRate() const;

    const Config &config() const { return cfg_; }

  private:
    Config cfg_;
    Rng rng_;
    /** Gilbert-Elliott bad-state flag per edge_id (grown lazily to
     * the overlay size announced by beginRound). */
    std::vector<std::uint8_t> burst_bad_;
    Stats stats_;
};

} // namespace dpc

#endif // DPC_FAULT_LOSSY_CHANNEL_HH
