/**
 * @file
 * Seedable lossy/delaying transport for DiBA's gossip exchanges.
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
#include <unordered_map>
#include <vector>

#include "net/transport.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace dpc {

/** Seedable drop/burst/delay transport (see file header). */
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

    /**
     * Register a dead/cut edge mask (mask[edge_id] != 0 means the
     * edge is live; a null pointer clears the mask).  The pointer
     * is borrowed, not copied, so the caller's churn updates are
     * seen immediately.
     *
     * The allocator's round loop already skips dead edges before
     * querying the channel, but a *standalone* driver (a replay
     * harness iterating every overlay edge, or a transport
     * decorator that cannot see the allocator's live set) has no
     * such filter -- and letting masked pairs consume drop/burst/
     * delay draws would shift every subsequent edge's fate and
     * break seed-reproducibility against the filtered reference.
     * With a mask installed, fate() for a masked edge returns
     * dropped WITHOUT consuming any generator draw or advancing
     * the edge's burst chain (mirroring GroundTruthChannel's
     * convention for world-dead pairs), so the live-edge fate
     * sequence is identical to querying live edges only.
     */
    void setEdgeMask(const std::vector<std::uint8_t> *mask)
    {
        mask_ = mask;
    }

    /** Lifetime transport counters (all rounds since creation). */
    struct Stats
    {
        std::uint64_t offered = 0;   ///< pairs queried
        std::uint64_t dropped = 0;   ///< pairs cancelled
        std::uint64_t stale = 0;     ///< pairs delivered late
        std::uint64_t masked = 0;    ///< pairs refused by the mask
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
    /** Borrowed live-edge mask (null: every edge is queryable). */
    const std::vector<std::uint8_t> *mask_ = nullptr;
    Stats stats_;
};

namespace fault {

/**
 * Transport decorator injecting the LossyChannel fault model into
 * ANY inner transport -- loopback for in-process runs, sockets for
 * sharded ones (the same decorator class serves both, which is the
 * point of the Transport redesign).
 *
 * send() draws the pair's fate from the owned LossyChannel in
 * canonical send order, then forwards the pair to the inner
 * transport unconditionally (frames flow even for dropped pairs,
 * so remote halo snapshots stay exact); poll() merges the drawn
 * fate into the inner delivery: a drop from either layer wins, and
 * lags add staleness on top of whatever the inner transport
 * reports.  In a sharded run every shard constructs this decorator
 * with the SAME seed: because every shard offers every live pair
 * in the same canonical order, the replicas consume identical
 * draws and agree on every fate with zero coordination -- and the
 * fate sequence equals the single-process LossyChannel run, which
 * is what keeps sharded-lossy bitwise equal to loopback-lossy.
 *
 * With a zero-fault config this is the identity decorator;
 * LossyTransport over LoopbackTransport with the same seed is
 * bitwise identical to stepWithChannel(LossyChannel).
 */
class LossyTransport final : public net::Transport
{
  public:
    LossyTransport(net::Transport &inner, LossyChannel::Config cfg,
                   std::uint64_t seed)
        : inner_(&inner), chan_(cfg, seed)
    {
    }

    void beginRound(std::uint64_t round,
                    std::size_t num_edges) override
    {
        inner_->beginRound(round, num_edges);
        chan_.beginRound(num_edges);
        fates_.clear();
    }

    void send(const net::EdgePair &pair) override
    {
        fates_[pair.edge_id] =
            chan_.fate(pair.edge_id, pair.u, pair.v);
        inner_->send(pair);
    }

    bool poll(net::Delivery &out) override
    {
        if (!inner_->poll(out))
            return false;
        applyDrawnFate(out);
        return true;
    }

    bool tryPoll(net::Delivery &out) override
    {
        if (!inner_->tryPoll(out))
            return false;
        applyDrawnFate(out);
        return true;
    }

    std::size_t maxLag() const override
    {
        return inner_->maxLag() + chan_.maxLag();
    }

    /** Explicitly dense: the sparse sharded path needs lossless
     * in-order wakes, and a fate decorator can drop or lag the
     * frame that carries them, so never advertise wake support --
     * even over an inner transport that has it (the allocator's
     * maxLag() gate would also refuse, but do not rely on the
     * config being honest about zero-fault). */
    bool wakesSupported() const override { return false; }

    /** The underlying fault model (stats, config). */
    const LossyChannel &channel() const { return chan_; }

  private:
    /** Merge the fate drawn at send() into an inner delivery: a
     * drop from either layer wins, lags add. */
    void applyDrawnFate(net::Delivery &out) const
    {
        const auto it = fates_.find(out.pair.edge_id);
        DPC_ASSERT(it != fates_.end(),
                   "inner transport delivered an unoffered pair");
        const EdgeFate &drawn = it->second;
        if (!drawn.delivered)
            out.fate.delivered = false;
        out.fate.lag += drawn.lag;
    }

    net::Transport *inner_;
    LossyChannel chan_;
    /** Fates drawn this round, by edge id. */
    std::unordered_map<std::uint32_t, EdgeFate> fates_;
};

} // namespace fault

} // namespace dpc

#endif // DPC_FAULT_LOSSY_CHANNEL_HH
