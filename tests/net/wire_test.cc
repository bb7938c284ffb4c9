#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "net/wire.hh"

namespace dpc {
namespace net {
namespace {

bool
sameBits(double a, double b)
{
    std::uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    return ab == bb;
}

Frame
roundTrip(const Frame &in)
{
    std::vector<std::uint8_t> buf;
    encodeFrame(in, buf);
    Frame out;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Ok);
    EXPECT_EQ(consumed, buf.size());
    return out;
}

TEST(WireCodecTest, PairTransferRoundTripsAllFates)
{
    // Exhaustive over the fate space the transports produce:
    // delivered x lag 0..maxLag x every update-flag combination.
    constexpr std::uint32_t kMaxLag = 7;
    for (int delivered = 0; delivered <= 1; ++delivered) {
        for (std::uint32_t lag = 0; lag <= kMaxLag; ++lag) {
            for (int flags = 0; flags < 4; ++flags) {
                Frame in;
                in.type = FrameType::PairTransfer;
                in.pair_transfer.pair = EdgePair{
                    /*edge_id=*/lag * 131u + 7u,
                    /*u=*/3u,
                    /*v=*/11u,
                    /*round=*/0x0123456789abcdefULL,
                    /*e_u=*/1.25 * lag - 0.5,
                    /*e_v=*/-(1.25 * lag - 0.5),
                };
                in.pair_transfer.fate.delivered = delivered != 0;
                in.pair_transfer.fate.lag = lag;
                in.pair_transfer.update_u = (flags & 1) != 0;
                in.pair_transfer.update_v = (flags & 2) != 0;

                const Frame out = roundTrip(in);
                ASSERT_EQ(out.type, FrameType::PairTransfer);
                const auto &p = out.pair_transfer;
                EXPECT_EQ(p.pair.edge_id,
                          in.pair_transfer.pair.edge_id);
                EXPECT_EQ(p.pair.u, 3u);
                EXPECT_EQ(p.pair.v, 11u);
                EXPECT_EQ(p.pair.round, 0x0123456789abcdefULL);
                EXPECT_TRUE(sameBits(p.pair.e_u,
                                     in.pair_transfer.pair.e_u));
                EXPECT_TRUE(sameBits(p.pair.e_v,
                                     in.pair_transfer.pair.e_v));
                EXPECT_EQ(p.fate.delivered, delivered != 0);
                EXPECT_EQ(p.fate.lag, lag);
                EXPECT_EQ(p.update_u, (flags & 1) != 0);
                EXPECT_EQ(p.update_v, (flags & 2) != 0);
            }
        }
    }
}

TEST(WireCodecTest, DoublesTravelAsExactBitPatterns)
{
    const double cases[] = {
        0.0,
        -0.0,
        1.0 / 3.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::nextafter(170.0, 0.0),
    };
    for (const double x : cases) {
        Frame in;
        in.type = FrameType::PairTransfer;
        in.pair_transfer.pair.e_u = x;
        in.pair_transfer.pair.e_v = -x;
        const Frame out = roundTrip(in);
        EXPECT_TRUE(sameBits(out.pair_transfer.pair.e_u, x));
        EXPECT_TRUE(sameBits(out.pair_transfer.pair.e_v, -x));
    }
}

TEST(WireCodecTest, ControlFramesRoundTrip)
{
    {
        Frame in;
        in.type = FrameType::Hello;
        in.hello = HelloMsg{/*shard_id=*/3, /*version=*/kWireVersion,
                            /*udp_port=*/40123, /*tcp_port=*/40124};
        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, FrameType::Hello);
        EXPECT_EQ(out.hello.shard_id, 3u);
        EXPECT_EQ(out.hello.udp_port, 40123);
        EXPECT_EQ(out.hello.tcp_port, 40124);
    }
    {
        Frame in;
        in.type = FrameType::Welcome;
        in.welcome.agreed_version = kWireVersion;
        in.welcome.num_shards = 4;
        in.welcome.rounds = 60;
        in.welcome.udp_ports = {1000, 1001, 1002, 1003};
        in.welcome.tcp_ports = {2000, 2001, 2002, 2003};
        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, FrameType::Welcome);
        EXPECT_EQ(out.welcome.num_shards, 4u);
        EXPECT_EQ(out.welcome.rounds, 60u);
        EXPECT_EQ(out.welcome.udp_ports, in.welcome.udp_ports);
        EXPECT_EQ(out.welcome.tcp_ports, in.welcome.tcp_ports);
    }
    {
        Frame in;
        in.type = FrameType::RoundDone;
        in.round_done =
            RoundDoneMsg{/*shard_id=*/1, /*round=*/42,
                         /*local_max_dp=*/0.001953125};
        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, FrameType::RoundDone);
        EXPECT_EQ(out.round_done.round, 42u);
        EXPECT_TRUE(
            sameBits(out.round_done.local_max_dp, 0.001953125));
    }
    {
        Frame in;
        in.type = FrameType::RoundGo;
        in.round_go = RoundGoMsg{/*round=*/42,
                                 /*global_max_dp=*/0.5,
                                 /*stop=*/1};
        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, FrameType::RoundGo);
        EXPECT_EQ(out.round_go.stop, 1);
        EXPECT_TRUE(sameBits(out.round_go.global_max_dp, 0.5));
    }
    {
        Frame in;
        in.type = FrameType::Result;
        in.result.shard_id = 2;
        in.result.bytes_sent = 1 << 20;
        in.result.frames_sent = 999;
        in.result.retransmits = 3;
        in.result.node_ids = {5, 9, 13};
        in.result.power = {160.0, 170.5, -0.0};
        in.result.estimate = {1e-12, -1e-12, 0.0};
        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, FrameType::Result);
        EXPECT_EQ(out.result.node_ids, in.result.node_ids);
        ASSERT_EQ(out.result.power.size(), 3u);
        for (std::size_t i = 0; i < 3; ++i) {
            EXPECT_TRUE(
                sameBits(out.result.power[i], in.result.power[i]));
            EXPECT_TRUE(sameBits(out.result.estimate[i],
                                 in.result.estimate[i]));
        }
    }
}

TEST(WireCodecTest, CutBatchRoundTripsExactly)
{
    // Pinned to the v3 body layout: the unchanged bitmap and raw
    // 12-byte records exist only there (v4 suppresses / XOR-codes
    // them and is exercised by the CutBatchV4* tests below).
    Frame in;
    in.version = 3;
    in.type = FrameType::CutBatch;
    in.cut_batch.sender = 3;
    in.cut_batch.round = 0xfedcba9876543210ULL;
    in.cut_batch.seq = 7;
    in.cut_batch.reports = {
        DpReport{/*round=*/41, /*shard_mask=*/0b1011,
                 /*max_dp=*/0.001953125},
        DpReport{/*round=*/42, /*shard_mask=*/0b0001,
                 /*max_dp=*/-0.0},
    };
    std::uint64_t nan_bits;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(&nan_bits, &nan, sizeof(nan_bits));
    in.cut_batch.changed = {
        {0u, 0x3ff0000000000001ULL},
        {17u, nan_bits},
        {0xffffffu, 0x8000000000000000ULL}, // -0.0
    };
    in.cut_batch.unchanged = {0xdeadbeefcafef00dULL, 0x1ULL};

    const Frame out = roundTrip(in);
    ASSERT_EQ(out.type, FrameType::CutBatch);
    const auto &b = out.cut_batch;
    EXPECT_EQ(b.sender, 3u);
    EXPECT_EQ(b.round, in.cut_batch.round);
    EXPECT_EQ(b.seq, 7u);
    ASSERT_EQ(b.reports.size(), 2u);
    for (std::size_t i = 0; i < b.reports.size(); ++i) {
        EXPECT_EQ(b.reports[i].round,
                  in.cut_batch.reports[i].round);
        EXPECT_EQ(b.reports[i].shard_mask,
                  in.cut_batch.reports[i].shard_mask);
        EXPECT_TRUE(sameBits(b.reports[i].max_dp,
                             in.cut_batch.reports[i].max_dp));
    }
    EXPECT_EQ(b.changed, in.cut_batch.changed);
    EXPECT_EQ(b.unchanged, in.cut_batch.unchanged);

    // Empty containers round-trip too (a pure-suppression batch).
    Frame empty;
    empty.version = 3;
    empty.type = FrameType::CutBatch;
    empty.cut_batch.sender = 0;
    empty.cut_batch.round = 0;
    const Frame eout = roundTrip(empty);
    ASSERT_EQ(eout.type, FrameType::CutBatch);
    EXPECT_TRUE(eout.cut_batch.reports.empty());
    EXPECT_TRUE(eout.cut_batch.changed.empty());
    EXPECT_TRUE(eout.cut_batch.unchanged.empty());
}

TEST(WireCodecTest, CutBatchCarriesItsEpoch)
{
    // The v3 epoch field is the recovery fence: a batch from an
    // old configuration epoch must arrive tagged so fileBatch can
    // drop it.
    Frame in;
    in.type = FrameType::CutBatch;
    in.cut_batch.sender = 1;
    in.cut_batch.epoch = 0xdeadbeefu;
    in.cut_batch.round = 17;
    in.cut_batch.seq = 2;
    const Frame out = roundTrip(in);
    ASSERT_EQ(out.type, FrameType::CutBatch);
    EXPECT_EQ(out.cut_batch.epoch, 0xdeadbeefu);
}

TEST(WireCodecTest, EpochChangeRoundTripsEveryPhase)
{
    const EpochPhase phases[] = {EpochPhase::Quiesce,
                                 EpochPhase::Rollback,
                                 EpochPhase::Resume};
    for (const EpochPhase ph : phases) {
        Frame in;
        in.type = FrameType::EpochChange;
        in.epoch_change.epoch = 3;
        in.epoch_change.phase = ph;
        in.epoch_change.resume_round = 0x123456789abcULL;
        in.epoch_change.dead_mask = 0b1010;
        if (ph == EpochPhase::Resume)
            in.epoch_change.held = {-1234.5, -0.0, 1.0 / 3.0};
        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, FrameType::EpochChange);
        EXPECT_EQ(out.epoch_change.epoch, 3u);
        EXPECT_EQ(out.epoch_change.phase, ph);
        EXPECT_EQ(out.epoch_change.resume_round,
                  in.epoch_change.resume_round);
        EXPECT_EQ(out.epoch_change.dead_mask, 0b1010u);
        ASSERT_EQ(out.epoch_change.held.size(),
                  in.epoch_change.held.size());
        for (std::size_t i = 0; i < out.epoch_change.held.size();
             ++i)
            EXPECT_TRUE(sameBits(out.epoch_change.held[i],
                                 in.epoch_change.held[i]));
    }
}

TEST(WireCodecTest, EpochAckRoundTripsPartialsBitwise)
{
    // The Ack2 partials feed the canonical held-budget fold; any
    // rounding in transit would split the survivors' re-federation
    // bits.
    Frame in;
    in.type = FrameType::EpochAck;
    in.epoch_ack.shard_id = 2;
    in.epoch_ack.epoch = 5;
    in.epoch_ack.phase = EpochPhase::Rollback;
    in.epoch_ack.last_completed = 41;
    in.epoch_ack.sum_p = {513.0, std::nextafter(170.0, 0.0)};
    in.epoch_ack.sum_e = {-1e-12, -0.0};
    const Frame out = roundTrip(in);
    ASSERT_EQ(out.type, FrameType::EpochAck);
    EXPECT_EQ(out.epoch_ack.shard_id, 2u);
    EXPECT_EQ(out.epoch_ack.epoch, 5u);
    EXPECT_EQ(out.epoch_ack.phase, EpochPhase::Rollback);
    EXPECT_EQ(out.epoch_ack.last_completed, 41u);
    ASSERT_EQ(out.epoch_ack.sum_p.size(), 2u);
    ASSERT_EQ(out.epoch_ack.sum_e.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(sameBits(out.epoch_ack.sum_p[i],
                             in.epoch_ack.sum_p[i]));
        EXPECT_TRUE(sameBits(out.epoch_ack.sum_e[i],
                             in.epoch_ack.sum_e[i]));
    }
}

TEST(WireCodecTest, HeartbeatAndFaultStatsRoundTrip)
{
    {
        Frame in;
        in.type = FrameType::Heartbeat;
        in.heartbeat.shard_id = 7;
        in.heartbeat.epoch = 2;
        in.heartbeat.round = 0xabcdefULL;
        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, FrameType::Heartbeat);
        EXPECT_EQ(out.heartbeat.shard_id, 7u);
        EXPECT_EQ(out.heartbeat.epoch, 2u);
        EXPECT_EQ(out.heartbeat.round, 0xabcdefULL);
    }
    {
        Frame in;
        in.type = FrameType::Result;
        in.result.shard_id = 1;
        in.result.epoch = 4;
        in.result.stale_epoch_frames = 11;
        in.result.gaveup_frames = 22;
        in.result.suspect_events = 33;
        in.result.peer_suspected = 0b101;
        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, FrameType::Result);
        EXPECT_EQ(out.result.epoch, 4u);
        EXPECT_EQ(out.result.stale_epoch_frames, 11u);
        EXPECT_EQ(out.result.gaveup_frames, 22u);
        EXPECT_EQ(out.result.suspect_events, 33u);
        EXPECT_EQ(out.result.peer_suspected, 0b101u);
    }
}

TEST(WireCodecTest, MinFrameSizeAdmitsTheSmallestRealBatch)
{
    // SocketTransport validates datagram_budget >= kMinFrameSize
    // at construction; the bound must actually cover an empty
    // batch plus one changed record or the packer could emit an
    // unsendable frame.
    Frame f;
    f.type = FrameType::CutBatch;
    std::vector<std::uint8_t> buf;
    encodeFrame(f, buf);
    EXPECT_LE(buf.size() + 12, kMinFrameSize);
    EXPECT_EQ(cutBatchFrameSize(0, 1, 0), kMinFrameSize);
}

TEST(WireCodecTest, CutBatchFrameSizeMatchesEncoder)
{
    // cutBatchFrameSize is the v3 batch packer's budget
    // arithmetic; a drift between it and the encoder would make
    // the packer over- or under-fill datagrams.  (The v4 packer
    // accounts varints per item off kCutBatchV4Fixed instead.)
    const std::size_t shapes[][3] = {
        {0, 0, 0}, {1, 0, 0},  {0, 1, 0},  {0, 0, 1},
        {8, 3, 2}, {2, 40, 7}, {8, 116, 0},
    };
    for (const auto &s : shapes) {
        Frame f;
        f.version = 3;
        f.type = FrameType::CutBatch;
        f.cut_batch.reports.resize(s[0]);
        for (std::size_t i = 0; i < s[1]; ++i)
            f.cut_batch.changed.emplace_back(
                static_cast<std::uint32_t>(i), i * 0x9e3779b9ULL);
        f.cut_batch.unchanged.resize(s[2], ~0ull);
        std::vector<std::uint8_t> buf;
        encodeFrame(f, buf);
        EXPECT_EQ(buf.size(), cutBatchFrameSize(s[0], s[1], s[2]))
            << s[0] << " reports, " << s[1] << " changed, "
            << s[2] << " bitmap words";
    }
}

TEST(WireCodecTest, CutBatchV4RoundTripsEveryHotMode)
{
    // The v4 body gap-codes record indices and hot words and XOR-
    // codes value bits; decode must hand back ABSOLUTE indices and
    // the exact 64-bit patterns for every hot-bitmap encoding.
    const std::uint8_t modes[] = {kHotAll, kHotClear, kHotSparse};
    for (const std::uint8_t mode : modes) {
        Frame in;
        in.type = FrameType::CutBatch;
        in.cut_batch.sender = 1;
        in.cut_batch.epoch = 9;
        in.cut_batch.round = 0xfedcba9876543210ULL;
        in.cut_batch.seq = 0;
        in.cut_batch.total_changed = 0x123456u;
        in.cut_batch.hot_mode = mode;
        if (mode == kHotSparse)
            in.cut_batch.hot_words = {
                {0u, 0x1ULL},
                {3u, 0xdeadbeefcafef00dULL},
                {70000u, ~0ULL},
            };
        in.cut_batch.reports = {
            DpReport{/*round=*/41, /*shard_mask=*/0b1011,
                     /*max_dp=*/0.001953125},
        };
        // Strictly ascending positions, XOR deltas spanning the
        // 1-byte..10-byte varint range.
        in.cut_batch.changed = {
            {0u, 0x7fULL},
            {1u, 0x80ULL},
            {5u, 0x0000000100000000ULL},
            {1000000u, 0xffffffffffffffffULL},
        };

        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, FrameType::CutBatch);
        EXPECT_EQ(out.version, kWireVersion);
        const auto &b = out.cut_batch;
        EXPECT_EQ(b.sender, 1u);
        EXPECT_EQ(b.epoch, 9u);
        EXPECT_EQ(b.round, in.cut_batch.round);
        EXPECT_EQ(b.seq, 0u);
        EXPECT_EQ(b.total_changed, 0x123456u);
        EXPECT_EQ(b.hot_mode, mode);
        EXPECT_EQ(b.hot_words, in.cut_batch.hot_words);
        EXPECT_EQ(b.changed, in.cut_batch.changed);
        ASSERT_EQ(b.reports.size(), 1u);
        EXPECT_EQ(b.reports[0].round, 41u);
        EXPECT_TRUE(sameBits(b.reports[0].max_dp, 0.001953125));
        EXPECT_TRUE(b.unchanged.empty()); // v3-only field
    }

    // seq > 0: no hot bitmap, no total_changed on the wire.
    Frame cont;
    cont.type = FrameType::CutBatch;
    cont.cut_batch.sender = 2;
    cont.cut_batch.round = 7;
    cont.cut_batch.seq = 3;
    cont.cut_batch.changed = {{4u, 0x55ULL}, {8u, 0xaaULL}};
    const Frame cout = roundTrip(cont);
    EXPECT_EQ(cout.cut_batch.seq, 3u);
    EXPECT_EQ(cout.cut_batch.hot_mode, kHotNone);
    EXPECT_EQ(cout.cut_batch.total_changed, 0u);
    EXPECT_EQ(cout.cut_batch.changed, cont.cut_batch.changed);
}

TEST(WireCodecTest, CutBatchV4QuiescedFrameIsHeaderSized)
{
    // The steady-state claim: a fully-quiesced round from one
    // sender is a single seq-0 frame with zero records and a
    // one-byte hot encoding -- kCutBatchV4Fixed plus two zero
    // varints (n_changed, total_changed).
    Frame f;
    f.type = FrameType::CutBatch;
    f.cut_batch.sender = 0;
    f.cut_batch.round = 1000;
    f.cut_batch.seq = 0;
    f.cut_batch.hot_mode = kHotClear;
    std::vector<std::uint8_t> buf;
    encodeFrame(f, buf);
    EXPECT_EQ(buf.size(), kCutBatchV4Fixed + 2);

    const Frame out = roundTrip(f);
    EXPECT_EQ(out.cut_batch.hot_mode, kHotClear);
    EXPECT_TRUE(out.cut_batch.changed.empty());
    EXPECT_EQ(out.cut_batch.total_changed, 0u);
}

TEST(WireCodecTest, CutBatchV4TruncationAsksForMore)
{
    Frame in;
    in.type = FrameType::CutBatch;
    in.cut_batch.seq = 0;
    in.cut_batch.total_changed = 300;
    in.cut_batch.hot_mode = kHotSparse;
    in.cut_batch.hot_words = {{2u, 0xf0f0ULL}, {9u, 0x1ULL}};
    in.cut_batch.reports.resize(2);
    in.cut_batch.changed = {{1u, 0x100ULL}, {200u, 0x7fULL}};
    std::vector<std::uint8_t> buf;
    encodeFrame(in, buf);

    Frame out;
    std::size_t consumed = 0;
    for (std::size_t len = 0; len < buf.size(); ++len) {
        EXPECT_EQ(decodeFrame(buf.data(), len, out, consumed),
                  DecodeStatus::NeedMore)
            << "prefix length " << len;
        EXPECT_EQ(consumed, 0u);
    }
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Ok);
}

TEST(WireCodecTest, CutBatchV4MalformedIsBad)
{
    // Offsets shared by every v4 CutBatch: n_reports at fixed +20,
    // hot_mode at fixed +21.
    const std::size_t n_reports_off = kWireHeaderSize + 20;
    const std::size_t hot_mode_off = kWireHeaderSize + 21;

    Frame out;
    std::size_t consumed = 0;

    // A hot bitmap on a continuation frame (seq > 0): the wake
    // channel rides seq 0 only, anything else is a corrupt or
    // hostile frame.
    {
        Frame f;
        f.type = FrameType::CutBatch;
        f.cut_batch.seq = 2;
        std::vector<std::uint8_t> buf;
        encodeFrame(f, buf);
        buf[hot_mode_off] = kHotAll;
        EXPECT_EQ(
            decodeFrame(buf.data(), buf.size(), out, consumed),
            DecodeStatus::Bad);
    }

    // hot_mode above the defined range.
    {
        Frame f;
        f.type = FrameType::CutBatch;
        f.cut_batch.seq = 0;
        std::vector<std::uint8_t> buf;
        encodeFrame(f, buf);
        buf[hot_mode_off] = kHotClear + 1;
        EXPECT_EQ(
            decodeFrame(buf.data(), buf.size(), out, consumed),
            DecodeStatus::Bad);
    }

    // Declared counts that cannot fit the payload.
    {
        Frame f;
        f.type = FrameType::CutBatch;
        f.cut_batch.seq = 0;
        f.cut_batch.reports.resize(1);
        f.cut_batch.changed = {{3u, 9ULL}};
        std::vector<std::uint8_t> buf;
        encodeFrame(f, buf);
        buf[n_reports_off] = 200; // 200 * 24 bytes > payload
        EXPECT_EQ(
            decodeFrame(buf.data(), buf.size(), out, consumed),
            DecodeStatus::Bad);
    }

    // Payload bytes left over after the declared records: Bad,
    // not silently ignored (r.done() must hold).
    {
        Frame f;
        f.type = FrameType::CutBatch;
        f.cut_batch.seq = 0;
        std::vector<std::uint8_t> buf;
        encodeFrame(f, buf);
        buf.push_back(0x00);
        const std::uint32_t plen = static_cast<std::uint32_t>(
            buf.size() - kWireHeaderSize);
        std::memcpy(buf.data() + 8, &plen, sizeof(plen));
        EXPECT_EQ(
            decodeFrame(buf.data(), buf.size(), out, consumed),
            DecodeStatus::Bad);
    }
}

TEST(WireCodecTest, FramesAboveCurrentVersionAreBad)
{
    // Negotiation keeps agreed traffic at min(mine, theirs); a
    // frame stamped from the future means the peer skipped it, and
    // this build cannot know the newer body layout.
    Frame in;
    in.type = FrameType::CutBatch;
    std::vector<std::uint8_t> buf;
    encodeFrame(in, buf);
    const std::uint16_t above = kWireVersion + 1;
    buf[4] = static_cast<std::uint8_t>(above & 0xff);
    buf[5] = static_cast<std::uint8_t>(above >> 8);
    Frame out;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Bad);
}

TEST(WireCodecTest, ResultSparsityCountersRideV4Only)
{
    Frame in;
    in.type = FrameType::Result;
    in.result.shard_id = 1;
    in.result.suppressed_frames = 111;
    in.result.delta_frames = 222;
    in.result.wake_messages = 333;

    // v4 (default): the counters round-trip.
    const Frame out = roundTrip(in);
    EXPECT_EQ(out.result.suppressed_frames, 111u);
    EXPECT_EQ(out.result.delta_frames, 222u);
    EXPECT_EQ(out.result.wake_messages, 333u);

    // v3: not on the wire, decoded as zero.
    Frame legacy = in;
    legacy.version = 3;
    const Frame lout = roundTrip(legacy);
    EXPECT_EQ(lout.version, 3u);
    EXPECT_EQ(lout.result.suppressed_frames, 0u);
    EXPECT_EQ(lout.result.delta_frames, 0u);
    EXPECT_EQ(lout.result.wake_messages, 0u);
}

TEST(WireCodecTest, TruncatedCutBatchAsksForMore)
{
    Frame in;
    in.type = FrameType::CutBatch;
    in.cut_batch.reports.resize(3);
    in.cut_batch.changed = {{1u, 2ull}, {3u, 4ull}};
    in.cut_batch.unchanged = {5ull};
    std::vector<std::uint8_t> buf;
    encodeFrame(in, buf);

    Frame out;
    std::size_t consumed = 0;
    for (std::size_t len = 0; len < buf.size(); ++len) {
        EXPECT_EQ(decodeFrame(buf.data(), len, out, consumed),
                  DecodeStatus::NeedMore)
            << "prefix length " << len;
        EXPECT_EQ(consumed, 0u);
    }

    // Internally inconsistent counts must be Bad, not a crash: a
    // payload_len too small for the declared record counts.
    // Fixed part of a CutBatch (v3 and v4 agree up to here):
    // sender u32 | epoch u32 | round u64 | seq u32, then
    // n_reports.
    std::vector<std::uint8_t> bad = buf;
    bad[kWireHeaderSize + 4 + 4 + 8 + 4] = 9; // n_reports: 3 -> 9
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), out, consumed),
              DecodeStatus::Bad);
}

TEST(WireCodecTest, TruncatedFramesAskForMore)
{
    Frame in;
    in.type = FrameType::PairTransfer;
    in.pair_transfer.pair = EdgePair{1, 2, 3, 4, 5.0, -5.0};
    std::vector<std::uint8_t> buf;
    encodeFrame(in, buf);

    // Every proper prefix must report NeedMore, never Ok or Bad:
    // a TCP reassembly loop depends on it.
    Frame out;
    std::size_t consumed = 0;
    for (std::size_t len = 0; len < buf.size(); ++len) {
        EXPECT_EQ(decodeFrame(buf.data(), len, out, consumed),
                  DecodeStatus::NeedMore)
            << "prefix length " << len;
        EXPECT_EQ(consumed, 0u);
    }
}

TEST(WireCodecTest, GarbageIsRejectedNotBuffered)
{
    Frame out;
    std::size_t consumed = 0;

    // Wrong magic: Bad immediately, even on a short buffer (the
    // receiver must not wait forever for "more" of a bad frame).
    std::uint8_t junk[16] = {0xde, 0xad, 0xbe, 0xef};
    EXPECT_EQ(decodeFrame(junk, 4, out, consumed),
              DecodeStatus::Bad);
    EXPECT_EQ(decodeFrame(junk, sizeof(junk), out, consumed),
              DecodeStatus::Bad);

    // Valid header, unknown frame type.
    Frame in;
    in.type = FrameType::RoundGo;
    std::vector<std::uint8_t> buf;
    encodeFrame(in, buf);
    buf[6] = 0x7f; // type -> 0x7f7f-ish garbage
    buf[7] = 0x7f;
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Bad);

    // Valid header, payload length absurd.
    buf.clear();
    encodeFrame(in, buf);
    buf[8] = 0xff;
    buf[9] = 0xff;
    buf[10] = 0xff;
    buf[11] = 0xff;
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Bad);

    // Payload shorter than the body decoder needs.
    buf.clear();
    encodeFrame(in, buf);
    buf[8] = 1; // payload_len = 1, RoundGo needs 17
    buf.resize(kWireHeaderSize + 1);
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Bad);

    // Trailing payload bytes the body decoder did not consume.
    buf.clear();
    encodeFrame(in, buf);
    buf.push_back(0x00);
    buf[8] = static_cast<std::uint8_t>(buf.size() - kWireHeaderSize);
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Bad);
}

TEST(WireCodecTest, VersionNegotiation)
{
    std::uint16_t agreed = 0;

    // Same version: trivially agreed.
    EXPECT_TRUE(
        negotiateVersion(kWireVersion, kWireVersion, agreed));
    EXPECT_EQ(agreed, kWireVersion);

    // A newer peer: we talk at our version (min of the two).
    EXPECT_TRUE(negotiateVersion(kWireVersion, kWireVersion + 5,
                                 agreed));
    EXPECT_EQ(agreed, kWireVersion);

    // A peer below our floor: refused.
    if (kWireMinVersion > 0) {
        EXPECT_FALSE(negotiateVersion(
            kWireVersion,
            static_cast<std::uint16_t>(kWireMinVersion - 1),
            agreed));
    }

    // Frames stamped with a version below the floor are Bad at
    // decode time too.
    Frame in;
    in.type = FrameType::RoundGo;
    std::vector<std::uint8_t> buf;
    encodeFrame(in, buf);
    buf[4] = static_cast<std::uint8_t>(kWireMinVersion - 1);
    buf[5] = 0;
    Frame out;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Bad);
}

TEST(WireCodecTest, BackToBackFramesDecodeInSequence)
{
    // Two frames appended to one buffer (the TCP case): decode
    // must consume exactly one frame at a time.
    Frame a, b;
    a.type = FrameType::RoundDone;
    a.round_done.round = 7;
    b.type = FrameType::RoundGo;
    b.round_go.round = 7;
    std::vector<std::uint8_t> buf;
    encodeFrame(a, buf);
    const std::size_t first = buf.size();
    encodeFrame(b, buf);

    Frame out;
    std::size_t consumed = 0;
    ASSERT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Ok);
    EXPECT_EQ(consumed, first);
    EXPECT_EQ(out.type, FrameType::RoundDone);
    ASSERT_EQ(decodeFrame(buf.data() + consumed,
                          buf.size() - consumed, out, consumed),
              DecodeStatus::Ok);
    EXPECT_EQ(out.type, FrameType::RoundGo);
    EXPECT_EQ(consumed, buf.size() - first);
}

/** One pinned CutBatch frame: its case name, the message, the
 * version, whether it appends after a byte already in the buffer,
 * and its expected bytes as hex. */
struct GoldenFrame
{
    std::string name;
    CutBatchMsg msg;
    std::uint16_t version;
    bool append;
    std::string hex;
};

std::vector<GoldenFrame>
goldenCutBatches()
{
    // Expected bytes: recorded from the push_back encoder the
    // pointer writer replaced.
    static const char *const kHex[] = {
        // v3/seq0/sparse
        "aa44504357030007008d0000000300000002000000896745230100000000"
        "000000020400000002000000070000000000000005000000000000007b14"
        "ae47e17a543f080000000000000003000000000000000000000000000080"
        "00000000010000000000f03f010000008000000000000000090000007f00"
        "0000000000002c01000000000000000000c0010000000000000010325476"
        "98badcfe",
        // v3/seq1/sparse
        "aa44504357030007005d0000000300000002000000896745230100000001"
        "00000000040000000200000000000000010000000000f03f010000008000"
        "000000000000090000007f000000000000002c01000000000000000000c0"
        "01000000000000001032547698badcfe",
        // v3/seq0/allhot
        "44504357030007003d000000030000000200000089674523010000000000"
        "000000020000000100000002000000010000000000000003000000000000"
        "00000010400000000000000000",
        // v3/seq0/quiesced
        "44504357030007001d000000030000000200000089674523010000000000"
        "0000000000000000000000",
        // v4/seq0/sparse
        "aa4450435704000700730000000300000002000000896745230100000000"
        "0000000202040b03001003ffffffffffffffffff01000207000000000000"
        "0005000000000000007b14ae47e17a543f08000000000000000300000000"
        "00000000000000000000800081808080808080f83f008001077fa2028080"
        "808080808080c001",
        // v4/seq1/sparse
        "aa4450435704000700320000000300000002000000896745230100000001"
        "0000000000040081808080808080f83f008001077fa20280808080808080"
        "80c001",
        // v4/seq0/allhot
        "445043570400070024000000030000000200000089674523010000000000"
        "000000010202020100808080808080808840",
        // v4/seq0/quiesced
        "445043570400070018000000030000000200000089674523010000000000"
        "000000030000",
    };
    const auto base = [](std::uint32_t seq) {
        CutBatchMsg m;
        m.sender = 3;
        m.epoch = 2;
        m.round = 0x0123456789ull;
        m.seq = seq;
        return m;
    };
    std::vector<GoldenFrame> out;
    const char *const *hex = kHex;
    for (const std::uint16_t v : {std::uint16_t{3}, std::uint16_t{4}}) {
        const std::string tag = "v" + std::to_string(v);
        for (const std::uint32_t seq : {0u, 1u}) {
            CutBatchMsg m = base(seq);
            if (seq == 0)
                m.reports = {{7, 0x5, 1.25e-3}, {8, 0x3, -0.0}};
            m.changed = {{0, 0x3ff0000000000001ull}, {1, 0x80ull},
                         {9, 0x7fu}, {300, 0xc000000000000000ull}};
            if (v == 3) {
                m.unchanged = {0x1ull, 0xfedcba9876543210ull};
            } else if (seq == 0) {
                m.total_changed = 11;
                m.hot_mode = kHotSparse;
                m.hot_words = {{0, 0x10ull}, {4, ~0ull}, {5, 0x2ull}};
            }
            out.push_back({tag + "/seq" + std::to_string(seq) +
                               "/sparse",
                           m, v, true, *hex++});
        }
        CutBatchMsg hot = base(0);
        hot.hot_mode = v >= 4 ? kHotAll : kHotNone;
        hot.total_changed = 2;
        hot.changed = {{2, 0x1ull}, {3, 0x4010000000000000ull}};
        if (v == 3)
            hot.unchanged = {0x0ull};
        out.push_back({tag + "/seq0/allhot", hot, v, false, *hex++});
        CutBatchMsg quiet = base(0);
        quiet.hot_mode = v >= 4 ? kHotClear : kHotNone;
        out.push_back(
            {tag + "/seq0/quiesced", quiet, v, false, *hex++});
    }
    return out;
}

std::string
toHex(const std::vector<std::uint8_t> &bytes)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string s;
    for (const std::uint8_t b : bytes) {
        s += kDigits[b >> 4];
        s += kDigits[b & 0xf];
    }
    return s;
}

TEST(WireCodecTest, CutBatchBytesArePinned)
{
    // v3 and v4, seq 0 and 1, sparse, all-hot and quiesced frames:
    // encodeCutBatch() and encodeFrame() write the same pinned
    // bytes, appended after whatever the buffer already holds.
    for (const GoldenFrame &g : goldenCutBatches()) {
        SCOPED_TRACE(g.name);
        std::vector<std::uint8_t> direct, framed;
        if (g.append) {
            direct.push_back(0xaa);
            framed.push_back(0xaa);
        }
        encodeCutBatch(g.msg, direct, g.version);
        Frame f;
        f.type = FrameType::CutBatch;
        f.version = g.version;
        f.cut_batch = g.msg;
        encodeFrame(f, framed);
        EXPECT_EQ(toHex(direct), g.hex);
        EXPECT_EQ(toHex(framed), g.hex);
    }
}

} // namespace
} // namespace net
} // namespace dpc
