#include "fault/lossy_channel.hh"

#include <cmath>

#include "util/logging.hh"

namespace dpc {

LossyChannel::LossyChannel(Config cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed)
{
    // NaN fails every range test below *the wrong way* (all
    // comparisons are false, so a `a <= x && x <= b` guard written
    // as two rejections would pass); reject it explicitly first so
    // a corrupted config fails fast with its field named.
    DPC_ASSERT(!std::isnan(cfg_.drop_rate), "drop_rate is NaN");
    DPC_ASSERT(!std::isnan(cfg_.burst_enter), "burst_enter is NaN");
    DPC_ASSERT(!std::isnan(cfg_.burst_exit), "burst_exit is NaN");
    DPC_ASSERT(!std::isnan(cfg_.burst_drop), "burst_drop is NaN");
    DPC_ASSERT(!std::isnan(cfg_.delay_rate), "delay_rate is NaN");
    DPC_ASSERT(cfg_.drop_rate >= 0.0 && cfg_.drop_rate < 1.0,
               "drop_rate must be in [0, 1)");
    DPC_ASSERT(cfg_.burst_enter >= 0.0 && cfg_.burst_enter <= 1.0,
               "burst_enter must be in [0, 1]");
    DPC_ASSERT(cfg_.burst_exit > 0.0 && cfg_.burst_exit <= 1.0,
               "burst_exit must be in (0, 1] (bursts must end)");
    DPC_ASSERT(cfg_.burst_drop >= 0.0 && cfg_.burst_drop <= 1.0,
               "burst_drop must be in [0, 1]");
    DPC_ASSERT(cfg_.delay_rate >= 0.0 && cfg_.delay_rate <= 1.0,
               "delay_rate must be in [0, 1]");
    DPC_ASSERT(cfg_.delay_rate == 0.0 || cfg_.max_lag >= 1,
               "delay_rate > 0 requires max_lag >= 1");
    // The allocator keeps max_lag + 1 full estimate snapshots; an
    // absurd lag is a config bug, not a fault model.
    DPC_ASSERT(cfg_.max_lag <= kMaxLagLimit,
               "max_lag must be <= ", kMaxLagLimit,
               " (each lag round pins a full estimate snapshot)");
}

void
LossyChannel::beginRound(std::size_t num_edges)
{
    if (cfg_.burst_enter > 0.0 && burst_bad_.size() < num_edges)
        burst_bad_.resize(num_edges, 0);
}

EdgeFate
LossyChannel::fate(std::size_t edge_id, std::size_t, std::size_t)
{
    ++stats_.offered;
    // Advance the edge's Gilbert-Elliott chain first (one
    // transition draw per queried edge per round), then decide the
    // drop from the state the edge is now in.
    bool bad = false;
    if (cfg_.burst_enter > 0.0) {
        if (burst_bad_.size() <= edge_id)
            burst_bad_.resize(edge_id + 1, 0);
        bad = burst_bad_[edge_id] != 0;
        bad = bad ? !rng_.bernoulli(cfg_.burst_exit)
                  : rng_.bernoulli(cfg_.burst_enter);
        burst_bad_[edge_id] = bad ? 1 : 0;
    }
    const double p_drop = bad ? cfg_.burst_drop : cfg_.drop_rate;
    EdgeFate f;
    if (p_drop > 0.0 && rng_.bernoulli(p_drop)) {
        f.delivered = false;
        ++stats_.dropped;
        return f;
    }
    if (cfg_.delay_rate > 0.0 && rng_.bernoulli(cfg_.delay_rate)) {
        f.lag = static_cast<std::uint32_t>(rng_.uniformInt(
            1, static_cast<std::int64_t>(cfg_.max_lag)));
        ++stats_.stale;
    }
    return f;
}

double
LossyChannel::lossRate() const
{
    return stats_.offered == 0
               ? 0.0
               : static_cast<double>(stats_.dropped) /
                     static_cast<double>(stats_.offered);
}

} // namespace dpc
