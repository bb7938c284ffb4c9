#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
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
        in.type = FrameType::EpochAck;
        in.epoch_ack.sum_p = {x};
        in.epoch_ack.sum_e = {-x};
        const Frame out = roundTrip(in);
        ASSERT_EQ(out.epoch_ack.sum_p.size(), 1u);
        EXPECT_TRUE(sameBits(out.epoch_ack.sum_p[0], x));
        EXPECT_TRUE(sameBits(out.epoch_ack.sum_e[0], -x));
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
    // A continuation batch (no hot bitmap, no declared total)
    // whose records carry NaN and -0.0 bit patterns.
    Frame in;
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

    // Empty containers round-trip too (a pure-suppression batch).
    Frame empty;
    empty.type = FrameType::CutBatch;
    empty.cut_batch.sender = 0;
    empty.cut_batch.round = 0;
    const Frame eout = roundTrip(empty);
    ASSERT_EQ(eout.type, FrameType::CutBatch);
    EXPECT_TRUE(eout.cut_batch.reports.empty());
    EXPECT_TRUE(eout.cut_batch.changed.empty());
}

TEST(WireCodecTest, CutBatchCarriesItsEpoch)
{
    // The epoch field is the recovery fence: a batch from an
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
    // at construction; the bound must cover a continuation batch
    // carrying one changed record at its longest encoding (the
    // largest position gap and a full 64-bit XOR), or the packer
    // could emit an unsendable frame.
    Frame f;
    f.type = FrameType::CutBatch;
    f.cut_batch.seq = 1;
    f.cut_batch.changed = {{0xffffffffu, ~0ull}};
    std::vector<std::uint8_t> buf;
    encodeFrame(f, buf);
    EXPECT_LE(buf.size(), kMinFrameSize);
}

TEST(WireCodecTest, CutBatchV4RoundTripsEveryHotMode)
{
    // The body gap-codes record indices and hot words and XOR-
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
    // Offsets shared by every CutBatch: n_reports at fixed +20,
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

    // An overlong `changed` count (0x80 0x00 for 0): every varint
    // has one minimal encoding, so two byte strings never decode
    // to one frame.
    {
        Frame f;
        f.type = FrameType::CutBatch;
        f.cut_batch.seq = 0;
        std::vector<std::uint8_t> buf;
        encodeFrame(f, buf);
        const std::size_t changed_off = kWireHeaderSize + 22;
        ASSERT_EQ(buf[changed_off], 0x00);
        buf.insert(buf.begin() + changed_off, 0x80);
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
    // A frame stamped from the future comes from a build whose body
    // layouts this one cannot know.
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
    const Frame out = roundTrip(in);
    EXPECT_EQ(out.result.suppressed_frames, 111u);
    EXPECT_EQ(out.result.delta_frames, 222u);
    EXPECT_EQ(out.result.wake_messages, 333u);
}

TEST(WireCodecTest, TruncatedCutBatchAsksForMore)
{
    Frame in;
    in.type = FrameType::CutBatch;
    in.cut_batch.reports.resize(3);
    in.cut_batch.changed = {{1u, 2ull}, {3u, 4ull}};
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
    // Fixed part of a CutBatch: sender u32 | epoch u32 |
    // round u64 | seq u32, then n_reports.
    std::vector<std::uint8_t> bad = buf;
    bad[kWireHeaderSize + 4 + 4 + 8 + 4] = 9; // n_reports: 3 -> 9
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), out, consumed),
              DecodeStatus::Bad);
}

TEST(WireCodecTest, TruncatedFramesAskForMore)
{
    Frame in;
    in.type = FrameType::EpochChange;
    in.epoch_change.epoch = 2;
    in.epoch_change.phase = EpochPhase::Resume;
    in.epoch_change.resume_round = 40;
    in.epoch_change.dead_mask = 0b10;
    in.epoch_change.held = {-512.0, 1.0 / 3.0};
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

TEST(WireCodecTest, OnlyTheCurrentVersionDecodes)
{
    // Every shard runs the same build: a header stamped with any
    // other version -- older layouts included -- is Bad for every
    // frame type.
    const FrameType types[] = {
        FrameType::Hello,       FrameType::Welcome,
        FrameType::RoundGo,     FrameType::Result,
        FrameType::CutBatch,    FrameType::EpochChange,
        FrameType::EpochAck,    FrameType::Heartbeat,
    };
    const std::uint16_t others[] = {0, 1, 2, 3, kWireVersion + 1,
                                    0xffff};
    for (const FrameType t : types) {
        Frame in;
        in.type = t;
        std::vector<std::uint8_t> buf;
        encodeFrame(in, buf);
        Frame out;
        std::size_t consumed = 0;
        EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
                  DecodeStatus::Ok)
            << "type " << static_cast<int>(t);
        for (const std::uint16_t v : others) {
            buf[4] = static_cast<std::uint8_t>(v & 0xff);
            buf[5] = static_cast<std::uint8_t>(v >> 8);
            EXPECT_EQ(
                decodeFrame(buf.data(), buf.size(), out, consumed),
                DecodeStatus::Bad)
                << "type " << static_cast<int>(t) << ", version "
                << v;
        }
    }

    // The retired frame types 3 and 4 are unknown types.
    for (const std::uint16_t t : {3, 4}) {
        Frame in;
        in.type = FrameType::RoundGo;
        std::vector<std::uint8_t> buf;
        encodeFrame(in, buf);
        buf[6] = static_cast<std::uint8_t>(t);
        buf[7] = 0;
        Frame out;
        std::size_t consumed = 0;
        EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
                  DecodeStatus::Bad)
            << "type " << t;
    }
}

TEST(WireCodecTest, BackToBackFramesDecodeInSequence)
{
    // Two frames appended to one buffer (the TCP case): decode
    // must consume exactly one frame at a time.
    Frame a, b;
    a.type = FrameType::Heartbeat;
    a.heartbeat.round = 7;
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
    EXPECT_EQ(out.type, FrameType::Heartbeat);
    ASSERT_EQ(decodeFrame(buf.data() + consumed,
                          buf.size() - consumed, out, consumed),
              DecodeStatus::Ok);
    EXPECT_EQ(out.type, FrameType::RoundGo);
    EXPECT_EQ(consumed, buf.size() - first);
}

/** One pinned CutBatch frame: its case name, the message, whether
 * it appends after a byte already in the buffer, and its expected
 * bytes as hex. */
struct GoldenFrame
{
    std::string name;
    CutBatchMsg msg;
    bool append;
    std::string hex;
};

std::vector<GoldenFrame>
goldenCutBatches()
{
    // Expected bytes: recorded from the push_back encoder the
    // pointer writer replaced.
    static const char *const kHex[] = {
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
    for (const std::uint32_t seq : {0u, 1u}) {
        CutBatchMsg m = base(seq);
        if (seq == 0) {
            m.reports = {{7, 0x5, 1.25e-3}, {8, 0x3, -0.0}};
            m.total_changed = 11;
            m.hot_mode = kHotSparse;
            m.hot_words = {{0, 0x10ull}, {4, ~0ull}, {5, 0x2ull}};
        }
        m.changed = {{0, 0x3ff0000000000001ull}, {1, 0x80ull},
                     {9, 0x7fu}, {300, 0xc000000000000000ull}};
        out.push_back({"v4/seq" + std::to_string(seq) + "/sparse", m,
                       true, *hex++});
    }
    CutBatchMsg hot = base(0);
    hot.hot_mode = kHotAll;
    hot.total_changed = 2;
    hot.changed = {{2, 0x1ull}, {3, 0x4010000000000000ull}};
    out.push_back({"v4/seq0/allhot", hot, false, *hex++});
    CutBatchMsg quiet = base(0);
    quiet.hot_mode = kHotClear;
    out.push_back({"v4/seq0/quiesced", quiet, false, *hex++});
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
    // Seq 0 and 1, sparse, all-hot and quiesced frames:
    // encodeCutBatch() and encodeFrame() write the same pinned
    // bytes, appended after whatever the buffer already holds.
    for (const GoldenFrame &g : goldenCutBatches()) {
        SCOPED_TRACE(g.name);
        std::vector<std::uint8_t> direct, framed;
        if (g.append) {
            direct.push_back(0xaa);
            framed.push_back(0xaa);
        }
        encodeCutBatch(g.msg, direct);
        Frame f;
        f.type = FrameType::CutBatch;
        f.cut_batch = g.msg;
        encodeFrame(f, framed);
        EXPECT_EQ(toHex(direct), g.hex);
        EXPECT_EQ(toHex(framed), g.hex);
    }
}

/** One pinned control-plane frame and its expected bytes as hex. */
struct GoldenControlFrame
{
    std::string name;
    Frame frame;
    std::string hex;
};

std::vector<GoldenControlFrame>
goldenControlFrames()
{
    std::vector<GoldenControlFrame> out;
    {
        Frame f;
        f.type = FrameType::Hello;
        f.hello = HelloMsg{/*shard_id=*/3, /*version=*/kWireVersion,
                           /*udp_port=*/40123, /*tcp_port=*/40124};
        out.push_back({"hello", f,
            "44504357040001000a000000030000000400bb9cbc9c"});
    }
    {
        Frame f;
        f.type = FrameType::Welcome;
        f.welcome.agreed_version = kWireVersion;
        f.welcome.num_shards = 3;
        f.welcome.rounds = 0x0123456789ull;
        f.welcome.udp_ports = {1000, 1001, 50000};
        f.welcome.tcp_ports = {2000, 2001, 65535};
        out.push_back({"welcome", f,
            "44504357040002001a0000000400030000008967452301000000e803"
            "e90350c3d007d107ffff"});
    }
    {
        Frame f;
        f.type = FrameType::RoundGo;
        f.round_go = RoundGoMsg{/*round=*/0x1122334455667788ull,
                                /*global_max_dp=*/-0.0, /*stop=*/1};
        out.push_back({"roundgo", f,
            "44504357040005001100000088776655443322110000000000000080"
            "01"});
    }
    {
        Frame f;
        f.type = FrameType::Result;
        ResultMsg &m = f.result;
        m.shard_id = 1;
        m.epoch = 2;
        m.bytes_sent = 3;
        m.frames_sent = 4;
        m.retransmits = 5;
        m.retrans_bytes = 6;
        m.bytes_received = 7;
        m.frames_received = 8;
        m.duplicates = 9;
        m.edges_suppressed = 10;
        m.stale_epoch_frames = 11;
        m.gaveup_frames = 12;
        m.suspect_events = 13;
        m.peer_suspected = 0b110;
        m.suppressed_frames = 15;
        m.delta_frames = 16;
        m.wake_messages = 17;
        for (std::size_t b = 0; b < m.edges_per_frame_hist.size(); ++b)
            m.edges_per_frame_hist[b] = 100 + b;
        m.final_local_max_dp = 1.25e-3;
        m.phase_send_s = 0.5;
        m.phase_interior_s = 0.25;
        m.phase_drain_s = -0.0;
        m.phase_boundary_s = 2.0;
        m.round_loop_s = 4.0;
        m.node_ids = {512, 513};
        m.power = {160.0, 170.5};
        m.estimate = {-1e-12, 1.0 / 3.0};
        out.push_back({"result", f,
            "44504357040006002401000001000000020000000300000000000000"
            "04000000000000000500000000000000060000000000000007000000"
            "00000000080000000000000009000000000000000a00000000000000"
            "0b000000000000000c000000000000000d0000000000000006000000"
            "000000000f0000000000000010000000000000001100000000000000"
            "64000000000000006500000000000000660000000000000067000000"
            "00000000680000000000000069000000000000006a00000000000000"
            "6b000000000000006c000000000000007b14ae47e17a543f00000000"
            "0000e03f000000000000d03f00000000000000800000000000000040"
            "00000000000010400200000000020000000000000000644011ea2d81"
            "999771bd010200000000000000506540555555555555d53f"});
    }
    {
        Frame f;
        f.type = FrameType::EpochChange;
        f.epoch_change.epoch = 3;
        f.epoch_change.phase = EpochPhase::Resume;
        f.epoch_change.resume_round = 0x123456789abcull;
        f.epoch_change.dead_mask = 0b1010;
        f.epoch_change.held = {-1234.5, -0.0};
        out.push_back({"epochchange", f,
            "4450435704000800290000000300000002bc9a7856341200000a0000"
            "00000000000200000000000000004a93c00000000000000080"});
    }
    {
        Frame f;
        f.type = FrameType::EpochAck;
        f.epoch_ack.shard_id = 2;
        f.epoch_ack.epoch = 5;
        f.epoch_ack.phase = EpochPhase::Rollback;
        f.epoch_ack.last_completed = 41;
        f.epoch_ack.sum_p = {513.0, 170.0};
        f.epoch_ack.sum_e = {-1e-12, 0.0};
        out.push_back({"epochack", f,
            "44504357040009003500000002000000050000000129000000000000"
            "0002000000000000000008804011ea2d81999771bd00000000004065"
            "400000000000000000"});
    }
    {
        Frame f;
        f.type = FrameType::Heartbeat;
        f.heartbeat.shard_id = 7;
        f.heartbeat.epoch = 2;
        f.heartbeat.round = 0xabcdefull;
        out.push_back({"heartbeat", f,
            "4450435704000a00100000000700000002000000efcdab0000000000"});
    }
    return out;
}

TEST(WireCodecTest, FrameBytesArePinned)
{
    // Every control frame type, pinned byte for byte, and each
    // decodes back to the same encoding.
    for (const GoldenControlFrame &g : goldenControlFrames()) {
        SCOPED_TRACE(g.name);
        std::vector<std::uint8_t> buf;
        encodeFrame(g.frame, buf);
        EXPECT_EQ(toHex(buf), g.hex);
        Frame out;
        std::size_t consumed = 0;
        ASSERT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
                  DecodeStatus::Ok);
        EXPECT_EQ(consumed, buf.size());
        EXPECT_EQ(out.type, g.frame.type);
        std::vector<std::uint8_t> again;
        encodeFrame(out, again);
        EXPECT_EQ(again, buf);
    }
}

/** Every pinned frame's bytes: the fuzzer's seed corpus. */
std::vector<std::vector<std::uint8_t>>
goldenCorpus()
{
    std::vector<std::vector<std::uint8_t>> out;
    for (const GoldenFrame &g : goldenCutBatches()) {
        out.emplace_back();
        encodeCutBatch(g.msg, out.back());
    }
    for (const GoldenControlFrame &g : goldenControlFrames()) {
        out.emplace_back();
        encodeFrame(g.frame, out.back());
    }
    return out;
}

/** The decoder's contract on one arbitrary buffer; true when it
 * decoded Ok. */
bool
checkDecodeContract(const std::vector<std::uint8_t> &buf)
{
    Frame f;
    std::size_t consumed = 0;
    const DecodeStatus st =
        decodeFrame(buf.data(), buf.size(), f, consumed);
    if (st != DecodeStatus::Ok) {
        EXPECT_EQ(consumed, 0u);
        return false;
    }
    // Ok consumes exactly the header plus the declared payload,
    // and never more than it was given.
    EXPECT_GE(buf.size(), kWireHeaderSize);
    std::uint32_t payload_len = 0;
    for (int i = 0; i < 4; ++i)
        payload_len |= std::uint32_t{buf[8 + i]} << (8 * i);
    EXPECT_EQ(consumed, kWireHeaderSize + payload_len);
    EXPECT_LE(consumed, buf.size());
    // Every proper prefix of the frame asks for more.
    for (std::size_t len = 0; len < consumed; ++len) {
        Frame p;
        std::size_t c = 0;
        EXPECT_EQ(decodeFrame(buf.data(), len, p, c),
                  DecodeStatus::NeedMore)
            << "prefix length " << len;
    }
    // The decoded frame survives its own round trip: every frame
    // type, CutBatch included, has one encoding, so it re-encodes
    // to the very bytes decoded.
    std::vector<std::uint8_t> once;
    encodeFrame(f, once);
    EXPECT_TRUE(std::equal(once.begin(), once.end(), buf.begin(),
                           buf.begin() + consumed));
    Frame again;
    std::size_t c = 0;
    EXPECT_EQ(decodeFrame(once.data(), once.size(), again, c),
              DecodeStatus::Ok);
    EXPECT_EQ(c, once.size());
    EXPECT_EQ(again.type, f.type);
    std::vector<std::uint8_t> twice;
    encodeFrame(again, twice);
    EXPECT_EQ(twice, once);
    return true;
}

TEST(WireCodecTest, DecoderSurvivesMutatedAndRandomBytes)
{
    // A seeded mutation fuzzer over the pinned frames: bit flips,
    // byte overwrites, truncations and payload-length edits, plus
    // random buffers (half of them behind a well-formed header so
    // the body decoders see the noise).  Fixed seed and iteration
    // count: the run is deterministic and well under a second.
    const std::vector<std::vector<std::uint8_t>> corpus =
        goldenCorpus();
    const FrameType types[] = {
        FrameType::Hello,       FrameType::Welcome,
        FrameType::RoundGo,     FrameType::Result,
        FrameType::CutBatch,    FrameType::EpochChange,
        FrameType::EpochAck,    FrameType::Heartbeat,
    };
    constexpr int kIterations = 20000;
    std::mt19937_64 rng(0x5eedf00dull);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const auto setPayloadLen = [](std::vector<std::uint8_t> &b,
                                  std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            b[8 + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    int ok = 0;
    for (int it = 0; it < kIterations; ++it) {
        std::vector<std::uint8_t> buf;
        if (it % 8 == 0) {
            buf.resize(pick(160));
            for (std::uint8_t &b : buf)
                b = static_cast<std::uint8_t>(rng());
            if (buf.size() >= kWireHeaderSize && pick(2) == 0) {
                Frame hdr;
                hdr.type = types[pick(std::size(types))];
                std::vector<std::uint8_t> h;
                encodeFrame(hdr, h);
                std::copy_n(h.begin(), kWireHeaderSize, buf.begin());
                setPayloadLen(buf, static_cast<std::uint32_t>(
                                       buf.size() - kWireHeaderSize));
            }
        } else {
            buf = corpus[pick(corpus.size())];
            const std::size_t n_mut = 1 + pick(4);
            for (std::size_t m = 0; m < n_mut && !buf.empty(); ++m) {
                switch (pick(4)) {
                case 0: // bit flip
                    buf[pick(buf.size())] ^=
                        static_cast<std::uint8_t>(1u << pick(8));
                    break;
                case 1: { // byte overwrite, often a varint edge
                    static const std::uint8_t edges[] = {
                        0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff};
                    buf[pick(buf.size())] =
                        pick(2) == 0
                            ? edges[pick(std::size(edges))]
                            : static_cast<std::uint8_t>(rng());
                    break;
                }
                case 2: // truncation
                    buf.resize(pick(buf.size()));
                    break;
                default: { // payload-length edit
                    if (buf.size() < kWireHeaderSize)
                        break;
                    const auto exact = static_cast<std::uint32_t>(
                        buf.size() - kWireHeaderSize);
                    const std::uint32_t v =
                        pick(4) == 0
                            ? static_cast<std::uint32_t>(rng())
                            : exact + static_cast<std::uint32_t>(
                                          pick(17)) -
                                  8;
                    setPayloadLen(buf, v);
                    break;
                }
                }
            }
        }
        SCOPED_TRACE("iteration " + std::to_string(it));
        if (checkDecodeContract(buf))
            ++ok;
        if (::testing::Test::HasFailure())
            return;
    }
    // The mutations must leave enough frames intact for the Ok
    // path's checks to mean something.
    EXPECT_GT(ok, kIterations / 20);
}

} // namespace
} // namespace net
} // namespace dpc
