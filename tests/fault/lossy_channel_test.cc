#include <gtest/gtest.h>

#include <limits>

#include "fault/lossy_channel.hh"

namespace dpc {
namespace {

TEST(LossyChannelTest, PerfectChannelDeliversEverythingFresh)
{
    // A zero-config channel is the perfect one: no loss, no lag.
    LossyChannel chan({}, 1);
    chan.beginRound(100);
    for (std::size_t e = 0; e < 100; ++e) {
        const auto f = chan.fate(e, e, e + 1);
        EXPECT_TRUE(f.delivered);
        EXPECT_EQ(f.lag, 0u);
    }
    EXPECT_EQ(chan.maxLag(), 0u);
    EXPECT_EQ(chan.stats().dropped, 0u);
    EXPECT_EQ(chan.stats().stale, 0u);
}

TEST(LossyChannelTest, IidLossRateMatchesConfig)
{
    LossyChannel::Config cfg;
    cfg.drop_rate = 0.25;
    LossyChannel chan(cfg, 1);
    const std::size_t rounds = 200, edges = 100;
    for (std::size_t r = 0; r < rounds; ++r) {
        chan.beginRound(edges);
        for (std::size_t e = 0; e < edges; ++e)
            chan.fate(e, e, e + 1);
    }
    EXPECT_EQ(chan.stats().offered, rounds * edges);
    EXPECT_NEAR(chan.lossRate(), 0.25, 0.02);
    EXPECT_EQ(chan.stats().stale, 0u);
}

TEST(LossyChannelTest, SameSeedReproducesFateSequence)
{
    LossyChannel::Config cfg;
    cfg.drop_rate = 0.3;
    cfg.delay_rate = 0.2;
    cfg.max_lag = 3;
    LossyChannel a(cfg, 99), b(cfg, 99);
    for (std::size_t r = 0; r < 50; ++r) {
        a.beginRound(40);
        b.beginRound(40);
        for (std::size_t e = 0; e < 40; ++e) {
            const auto fa = a.fate(e, e, e + 1);
            const auto fb = b.fate(e, e, e + 1);
            EXPECT_EQ(fa.delivered, fb.delivered);
            EXPECT_EQ(fa.lag, fb.lag);
        }
    }
    EXPECT_EQ(a.stats().dropped, b.stats().dropped);
    EXPECT_EQ(a.stats().stale, b.stats().stale);
}

TEST(LossyChannelTest, DelayLagsStayWithinBound)
{
    LossyChannel::Config cfg;
    cfg.delay_rate = 0.5;
    cfg.max_lag = 4;
    LossyChannel chan(cfg, 7);
    bool saw_stale = false;
    for (std::size_t r = 0; r < 100; ++r) {
        chan.beginRound(20);
        for (std::size_t e = 0; e < 20; ++e) {
            const auto f = chan.fate(e, e, e + 1);
            EXPECT_TRUE(f.delivered);
            EXPECT_LE(f.lag, 4u);
            saw_stale |= f.lag > 0;
        }
    }
    EXPECT_TRUE(saw_stale);
    EXPECT_GT(chan.stats().stale, 0u);
    EXPECT_EQ(chan.stats().dropped, 0u);
}

TEST(LossyChannelTest, BurstChainRaisesLossAboveGoodState)
{
    // Pure burst loss: drops only happen inside bad-state windows,
    // whose stationary frequency is enter/(enter+exit) = 0.2.
    LossyChannel::Config cfg;
    cfg.drop_rate = 0.0;
    cfg.burst_enter = 0.05;
    cfg.burst_exit = 0.2;
    cfg.burst_drop = 1.0;
    LossyChannel chan(cfg, 3);
    for (std::size_t r = 0; r < 20000; ++r) {
        chan.beginRound(1);
        chan.fate(0, 0, 1);
    }
    EXPECT_GT(chan.lossRate(), 0.12);
    EXPECT_LT(chan.lossRate(), 0.30);
}

TEST(LossyChannelTest, ConfigValidationPanics)
{
    LossyChannel::Config bad_drop;
    bad_drop.drop_rate = 1.0;
    EXPECT_DEATH(LossyChannel(bad_drop, 1), "drop_rate");

    LossyChannel::Config bad_delay;
    bad_delay.delay_rate = 0.5; // max_lag left at 0
    EXPECT_DEATH(LossyChannel(bad_delay, 1), "max_lag");
}

TEST(LossyChannelTest, ConfigValidationRejectsNegativesAndNaN)
{
    LossyChannel::Config neg_drop;
    neg_drop.drop_rate = -0.1;
    EXPECT_DEATH(LossyChannel(neg_drop, 1), "drop_rate");

    LossyChannel::Config neg_delay;
    neg_delay.delay_rate = -0.2;
    neg_delay.max_lag = 2;
    EXPECT_DEATH(LossyChannel(neg_delay, 1), "delay_rate");

    LossyChannel::Config dead_burst;
    dead_burst.burst_enter = 0.1;
    dead_burst.burst_exit = 0.0; // bursts would never end
    EXPECT_DEATH(LossyChannel(dead_burst, 1), "burst_exit");

    // NaN compares false against every bound; it must still be
    // rejected, with the offending field named.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    LossyChannel::Config nan_drop;
    nan_drop.drop_rate = nan;
    EXPECT_DEATH(LossyChannel(nan_drop, 1), "drop_rate");
    LossyChannel::Config nan_enter;
    nan_enter.burst_enter = nan;
    EXPECT_DEATH(LossyChannel(nan_enter, 1), "burst_enter");
    LossyChannel::Config nan_delay;
    nan_delay.delay_rate = nan;
    nan_delay.max_lag = 1;
    EXPECT_DEATH(LossyChannel(nan_delay, 1), "delay_rate");
}

TEST(LossyChannelTest, ConfigValidationBoundsMaxLag)
{
    LossyChannel::Config huge_lag;
    huge_lag.delay_rate = 0.1;
    huge_lag.max_lag = LossyChannel::kMaxLagLimit + 1;
    EXPECT_DEATH(LossyChannel(huge_lag, 1), "max_lag");

    // The limit itself is accepted.
    LossyChannel::Config at_limit;
    at_limit.delay_rate = 0.1;
    at_limit.max_lag = LossyChannel::kMaxLagLimit;
    LossyChannel ok(at_limit, 1);
    EXPECT_EQ(ok.maxLag(), LossyChannel::kMaxLagLimit);
}

} // namespace
} // namespace dpc
