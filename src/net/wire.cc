#include "net/wire.hh"

#include <bit>
#include <cstring>

namespace dpc {
namespace net {

namespace {

// Little-endian scalar writers/readers.  Byte-at-a-time keeps the
// codec endian-portable and alignment-safe; control frames are
// small and rare, and the hot CutBatch path writes through Writer.

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t x)
{
    out.push_back(static_cast<std::uint8_t>(x));
    out.push_back(static_cast<std::uint8_t>(x >> 8));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t x)
{
    for (int s = 0; s < 32; s += 8)
        out.push_back(static_cast<std::uint8_t>(x >> s));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t x)
{
    for (int s = 0; s < 64; s += 8)
        out.push_back(static_cast<std::uint8_t>(x >> s));
}

void
putF64(std::vector<std::uint8_t> &out, double x)
{
    putU64(out, std::bit_cast<std::uint64_t>(x));
}

/** Bounds-checked little-endian reader over one payload. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t len)
        : data_(data), len_(len)
    {
    }

    bool u8(std::uint8_t &x)
    {
        if (pos_ + 1 > len_)
            return false;
        x = data_[pos_++];
        return true;
    }

    bool u16(std::uint16_t &x)
    {
        if (pos_ + 2 > len_)
            return false;
        x = static_cast<std::uint16_t>(
            data_[pos_] | (std::uint16_t{data_[pos_ + 1]} << 8));
        pos_ += 2;
        return true;
    }

    bool u32(std::uint32_t &x)
    {
        if (pos_ + 4 > len_)
            return false;
        x = 0;
        for (int i = 0; i < 4; ++i)
            x |= std::uint32_t{data_[pos_ + i]} << (8 * i);
        pos_ += 4;
        return true;
    }

    bool u64(std::uint64_t &x)
    {
        if (pos_ + 8 > len_)
            return false;
        x = 0;
        for (int i = 0; i < 8; ++i)
            x |= std::uint64_t{data_[pos_ + i]} << (8 * i);
        pos_ += 8;
        return true;
    }

    bool f64(double &x)
    {
        std::uint64_t bits = 0;
        if (!u64(bits))
            return false;
        x = std::bit_cast<double>(bits);
        return true;
    }

    /** Unsigned LEB128 in its one minimal form; rejects encodings
     * past 10 bytes, with value bits beyond 64 (a 10th byte may
     * only carry bit 63), or overlong (a multi-byte encoding whose
     * last byte is 0x00, such as 0x80 0x00 for 0). */
    bool varint(std::uint64_t &x)
    {
        x = 0;
        for (int i = 0; i < 10; ++i) {
            if (pos_ >= len_)
                return false;
            const std::uint8_t b = data_[pos_++];
            if (i == 9 && (b & ~std::uint8_t{1}) != 0)
                return false;
            if (i > 0 && b == 0)
                return false;
            x |= std::uint64_t{b & 0x7fu} << (7 * i);
            if ((b & 0x80u) == 0)
                return true;
        }
        return false;
    }

    /** Varint bounded to u32 (counts, cut positions). */
    bool varint32(std::uint32_t &x)
    {
        std::uint64_t v = 0;
        if (!varint(v) || v > 0xffffffffull)
            return false;
        x = static_cast<std::uint32_t>(v);
        return true;
    }

    /** A payload must be consumed exactly: trailing garbage means
     * the sender and receiver disagree on the layout. */
    bool done() const { return pos_ == len_; }

  private:
    const std::uint8_t *data_;
    std::size_t len_;
    std::size_t pos_ = 0;
};

/** Little-endian stores through a raw pointer into a buffer sized
 * in advance: the CutBatch hot path, with no per-byte capacity
 * checks. */
class Writer
{
  public:
    explicit Writer(std::uint8_t *p) : p_(p) {}

    void u8(std::uint8_t x) { *p_++ = x; }

    void u16(std::uint16_t x)
    {
        p_[0] = static_cast<std::uint8_t>(x);
        p_[1] = static_cast<std::uint8_t>(x >> 8);
        p_ += 2;
    }

    void u32(std::uint32_t x)
    {
        for (int i = 0; i < 4; ++i)
            p_[i] = static_cast<std::uint8_t>(x >> (8 * i));
        p_ += 4;
    }

    void u64(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i)
            p_[i] = static_cast<std::uint8_t>(x >> (8 * i));
        p_ += 8;
    }

    void f64(double x) { u64(std::bit_cast<std::uint64_t>(x)); }

    /** Unsigned LEB128: 7 value bits per byte, low bits first,
     * high bit = continuation.  Small XOR deltas (estimates
     * converging in the low mantissa) encode in a byte or two. */
    void varint(std::uint64_t v)
    {
        while (v >= 0x80) {
            *p_++ = static_cast<std::uint8_t>(v) | 0x80u;
            v >>= 7;
        }
        *p_++ = static_cast<std::uint8_t>(v);
    }

    std::uint8_t *pos() const { return p_; }

  private:
    std::uint8_t *p_;
};

/**
 * Append one whole CutBatch frame, header included.  The buffer
 * grows once to an upper bound of the frame (every varint at its
 * longest), the frame is written through a Writer, and the buffer
 * is trimmed to the bytes written.
 */
void
encodeCutBatchFrame(const CutBatchMsg &m,
                    std::vector<std::uint8_t> &out)
{
    // Fixed part, the reports, then every varint at its longest.
    const std::size_t bound =
        kCutBatchV4Fixed + m.reports.size() * 24 + 3 * kVarint32Max +
        (m.hot_words.size() + m.changed.size()) *
            (kVarint32Max + kVarint64Max);
    const std::size_t at = out.size();
    out.resize(at + bound);
    std::uint8_t *const begin = out.data() + at;
    Writer w(begin);
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(FrameType::CutBatch));
    w.u32(0); // payload_len backpatched below
    w.u32(m.sender);
    w.u32(m.epoch);
    w.u64(m.round);
    w.u32(m.seq);
    w.u8(static_cast<std::uint8_t>(m.reports.size()));
    w.u8(m.hot_mode);
    w.varint(m.changed.size());
    if (m.seq == 0)
        w.varint(m.total_changed);
    if (m.hot_mode == kHotSparse) {
        w.varint(m.hot_words.size());
        std::uint32_t prev = 0;
        bool first = true;
        for (const auto &[wd, bits] : m.hot_words) {
            w.varint(first ? wd : wd - prev - 1);
            w.varint(bits);
            prev = wd;
            first = false;
        }
    }
    for (const DpReport &rep : m.reports) {
        w.u64(rep.round);
        w.u64(rep.shard_mask);
        w.f64(rep.max_dp);
    }
    std::uint32_t prev = 0;
    bool first = true;
    for (const auto &[idx, bits] : m.changed) {
        w.varint(first ? idx : idx - prev - 1);
        w.varint(bits);
        prev = idx;
        first = false;
    }
    const std::size_t len = static_cast<std::size_t>(w.pos() - begin);
    Writer(begin + 8).u32(
        static_cast<std::uint32_t>(len - kWireHeaderSize));
    out.resize(at + len);
}

void
encodeBody(const Frame &frame, std::vector<std::uint8_t> &out)
{
    switch (frame.type) {
    case FrameType::Hello: {
        const HelloMsg &m = frame.hello;
        putU32(out, m.shard_id);
        putU16(out, m.version);
        putU16(out, m.udp_port);
        putU16(out, m.tcp_port);
        break;
    }
    case FrameType::Welcome: {
        const WelcomeMsg &m = frame.welcome;
        putU16(out, m.agreed_version);
        putU32(out, m.num_shards);
        putU64(out, m.rounds);
        for (std::uint16_t p : m.udp_ports)
            putU16(out, p);
        for (std::uint16_t p : m.tcp_ports)
            putU16(out, p);
        break;
    }
    case FrameType::RoundGo: {
        const RoundGoMsg &m = frame.round_go;
        putU64(out, m.round);
        putF64(out, m.global_max_dp);
        out.push_back(m.stop);
        break;
    }
    case FrameType::Result: {
        const ResultMsg &m = frame.result;
        putU32(out, m.shard_id);
        putU32(out, m.epoch);
        putU64(out, m.bytes_sent);
        putU64(out, m.frames_sent);
        putU64(out, m.retransmits);
        putU64(out, m.retrans_bytes);
        putU64(out, m.bytes_received);
        putU64(out, m.frames_received);
        putU64(out, m.duplicates);
        putU64(out, m.edges_suppressed);
        putU64(out, m.stale_epoch_frames);
        putU64(out, m.gaveup_frames);
        putU64(out, m.suspect_events);
        putU64(out, m.peer_suspected);
        putU64(out, m.suppressed_frames);
        putU64(out, m.delta_frames);
        putU64(out, m.wake_messages);
        for (std::uint64_t b : m.edges_per_frame_hist)
            putU64(out, b);
        putF64(out, m.final_local_max_dp);
        putF64(out, m.phase_send_s);
        putF64(out, m.phase_interior_s);
        putF64(out, m.phase_drain_s);
        putF64(out, m.phase_boundary_s);
        putF64(out, m.round_loop_s);
        putU32(out, static_cast<std::uint32_t>(m.node_ids.size()));
        for (std::size_t i = 0; i < m.node_ids.size(); ++i) {
            putU32(out, m.node_ids[i]);
            putF64(out, m.power[i]);
            putF64(out, m.estimate[i]);
        }
        break;
    }
    case FrameType::CutBatch:
        break; // encodeFrame() routes it to encodeCutBatchFrame()
    case FrameType::EpochChange: {
        const EpochChangeMsg &m = frame.epoch_change;
        putU32(out, m.epoch);
        out.push_back(static_cast<std::uint8_t>(m.phase));
        putU64(out, m.resume_round);
        putU64(out, m.dead_mask);
        putU32(out, static_cast<std::uint32_t>(m.held.size()));
        for (double h : m.held)
            putF64(out, h);
        break;
    }
    case FrameType::EpochAck: {
        const EpochAckMsg &m = frame.epoch_ack;
        putU32(out, m.shard_id);
        putU32(out, m.epoch);
        out.push_back(static_cast<std::uint8_t>(m.phase));
        putU64(out, m.last_completed);
        putU32(out, static_cast<std::uint32_t>(m.sum_p.size()));
        for (std::size_t j = 0; j < m.sum_p.size(); ++j) {
            putF64(out, m.sum_p[j]);
            putF64(out, m.sum_e[j]);
        }
        break;
    }
    case FrameType::Heartbeat: {
        const HeartbeatMsg &m = frame.heartbeat;
        putU32(out, m.shard_id);
        putU32(out, m.epoch);
        putU64(out, m.round);
        break;
    }
    }
}

bool
decodeBody(FrameType type, const std::uint8_t *data, std::size_t len,
           Frame &out)
{
    Reader r(data, len);
    switch (type) {
    case FrameType::Hello: {
        HelloMsg &m = out.hello;
        return r.u32(m.shard_id) && r.u16(m.version) &&
               m.version == kWireVersion && r.u16(m.udp_port) &&
               r.u16(m.tcp_port) && r.done();
    }
    case FrameType::Welcome: {
        WelcomeMsg &m = out.welcome;
        if (!(r.u16(m.agreed_version) &&
              m.agreed_version == kWireVersion &&
              r.u32(m.num_shards) && r.u64(m.rounds)))
            return false;
        // Port tables are sized by num_shards; reject absurd
        // counts, and counts whose tables cannot fit the payload,
        // before allocating.
        if (m.num_shards > (1u << 20) ||
            std::size_t{m.num_shards} * 4 > len)
            return false;
        m.udp_ports.resize(m.num_shards);
        m.tcp_ports.resize(m.num_shards);
        for (auto &p : m.udp_ports)
            if (!r.u16(p))
                return false;
        for (auto &p : m.tcp_ports)
            if (!r.u16(p))
                return false;
        return r.done();
    }
    case FrameType::RoundGo: {
        RoundGoMsg &m = out.round_go;
        return r.u64(m.round) && r.f64(m.global_max_dp) &&
               r.u8(m.stop) && r.done();
    }
    case FrameType::Result: {
        ResultMsg &m = out.result;
        std::uint32_t count = 0;
        if (!(r.u32(m.shard_id) && r.u32(m.epoch) &&
              r.u64(m.bytes_sent) && r.u64(m.frames_sent) &&
              r.u64(m.retransmits) && r.u64(m.retrans_bytes) &&
              r.u64(m.bytes_received) && r.u64(m.frames_received) &&
              r.u64(m.duplicates) && r.u64(m.edges_suppressed) &&
              r.u64(m.stale_epoch_frames) &&
              r.u64(m.gaveup_frames) && r.u64(m.suspect_events) &&
              r.u64(m.peer_suspected) && r.u64(m.suppressed_frames) &&
              r.u64(m.delta_frames) && r.u64(m.wake_messages)))
            return false;
        for (auto &b : m.edges_per_frame_hist)
            if (!r.u64(b))
                return false;
        if (!(r.f64(m.final_local_max_dp) &&
              r.f64(m.phase_send_s) && r.f64(m.phase_interior_s) &&
              r.f64(m.phase_drain_s) && r.f64(m.phase_boundary_s) &&
              r.f64(m.round_loop_s) && r.u32(count)))
            return false;
        // 20 bytes per entry; the length prefix already bounds the
        // payload, this just rejects inconsistent counts early.
        if (std::size_t{count} * 20 > len)
            return false;
        m.node_ids.resize(count);
        m.power.resize(count);
        m.estimate.resize(count);
        for (std::uint32_t i = 0; i < count; ++i)
            if (!(r.u32(m.node_ids[i]) && r.f64(m.power[i]) &&
                  r.f64(m.estimate[i])))
                return false;
        return r.done();
    }
    case FrameType::CutBatch: {
        CutBatchMsg &m = out.cut_batch;
        std::uint8_t n_reports = 0;
        std::uint32_t n_changed = 0;
        if (!(r.u32(m.sender) && r.u32(m.epoch) &&
              r.u64(m.round) && r.u32(m.seq) && r.u8(n_reports)))
            return false;
        m.total_changed = 0;
        m.hot_words.clear();
        std::uint32_t n_hot = 0;
        if (!(r.u8(m.hot_mode) && r.varint32(n_changed)))
            return false;
        if (m.seq == 0) {
            if (!r.varint32(m.total_changed))
                return false;
        } else if (m.hot_mode != kHotNone) {
            // The hot bitmap rides seq 0 only.
            return false;
        }
        if (m.hot_mode > kHotClear)
            return false;
        if (m.hot_mode == kHotSparse && !r.varint32(n_hot))
            return false;
        // Every entry/record is >= 2 varint bytes; reject counts
        // that cannot fit before allocating.
        if (std::size_t{n_reports} * 24 +
                std::size_t{n_changed} * 2 +
                std::size_t{n_hot} * 2 >
            len)
            return false;
        m.hot_words.resize(n_hot);
        std::uint64_t prev = 0;
        bool first = true;
        for (auto &[w, bits] : m.hot_words) {
            std::uint32_t gap = 0;
            if (!(r.varint32(gap) && r.varint(bits)))
                return false;
            const std::uint64_t idx = first ? gap : prev + 1 + gap;
            if (idx > 0xffffffffull)
                return false;
            w = static_cast<std::uint32_t>(idx);
            prev = idx;
            first = false;
        }
        m.reports.resize(n_reports);
        for (DpReport &rep : m.reports)
            if (!(r.u64(rep.round) && r.u64(rep.shard_mask) &&
                  r.f64(rep.max_dp)))
                return false;
        m.changed.resize(n_changed);
        prev = 0;
        first = true;
        for (auto &[idx, bits] : m.changed) {
            std::uint32_t gap = 0;
            if (!(r.varint32(gap) && r.varint(bits)))
                return false;
            const std::uint64_t pos = first ? gap : prev + 1 + gap;
            if (pos > 0xffffffffull)
                return false;
            idx = static_cast<std::uint32_t>(pos);
            prev = pos;
            first = false;
        }
        return r.done();
    }
    case FrameType::EpochChange: {
        EpochChangeMsg &m = out.epoch_change;
        std::uint8_t phase = 0;
        std::uint32_t n_held = 0;
        if (!(r.u32(m.epoch) && r.u8(phase) &&
              r.u64(m.resume_round) && r.u64(m.dead_mask) &&
              r.u32(n_held)))
            return false;
        if (phase > static_cast<std::uint8_t>(EpochPhase::Resume))
            return false;
        m.phase = static_cast<EpochPhase>(phase);
        if (std::size_t{n_held} * 8 > len)
            return false;
        m.held.resize(n_held);
        for (double &h : m.held)
            if (!r.f64(h))
                return false;
        return r.done();
    }
    case FrameType::EpochAck: {
        EpochAckMsg &m = out.epoch_ack;
        std::uint8_t phase = 0;
        std::uint32_t n_comps = 0;
        if (!(r.u32(m.shard_id) && r.u32(m.epoch) && r.u8(phase) &&
              r.u64(m.last_completed) && r.u32(n_comps)))
            return false;
        if (phase > static_cast<std::uint8_t>(EpochPhase::Resume))
            return false;
        m.phase = static_cast<EpochPhase>(phase);
        if (std::size_t{n_comps} * 16 > len)
            return false;
        m.sum_p.resize(n_comps);
        m.sum_e.resize(n_comps);
        for (std::uint32_t j = 0; j < n_comps; ++j)
            if (!(r.f64(m.sum_p[j]) && r.f64(m.sum_e[j])))
                return false;
        return r.done();
    }
    case FrameType::Heartbeat: {
        HeartbeatMsg &m = out.heartbeat;
        return r.u32(m.shard_id) && r.u32(m.epoch) &&
               r.u64(m.round) && r.done();
    }
    }
    return false;
}

bool
knownType(std::uint16_t t)
{
    switch (static_cast<FrameType>(t)) {
    case FrameType::Hello:
    case FrameType::Welcome:
    case FrameType::RoundGo:
    case FrameType::Result:
    case FrameType::CutBatch:
    case FrameType::EpochChange:
    case FrameType::EpochAck:
    case FrameType::Heartbeat:
        return true;
    }
    return false;
}

} // namespace

void
encodeFrame(const Frame &frame, std::vector<std::uint8_t> &out)
{
    if (frame.type == FrameType::CutBatch) {
        encodeCutBatchFrame(frame.cut_batch, out);
        return;
    }
    const std::size_t header_at = out.size();
    putU32(out, kWireMagic);
    putU16(out, kWireVersion);
    putU16(out, static_cast<std::uint16_t>(frame.type));
    putU32(out, 0); // payload_len backpatched below
    const std::size_t body_at = out.size();
    encodeBody(frame, out);
    const std::uint32_t payload_len =
        static_cast<std::uint32_t>(out.size() - body_at);
    for (int i = 0; i < 4; ++i)
        out[header_at + 8 + i] =
            static_cast<std::uint8_t>(payload_len >> (8 * i));
}

void
encodeCutBatch(const CutBatchMsg &msg, std::vector<std::uint8_t> &out)
{
    encodeCutBatchFrame(msg, out);
}

DecodeStatus
decodeFrame(const std::uint8_t *data, std::size_t len, Frame &out,
            std::size_t &consumed)
{
    consumed = 0;
    if (len < kWireHeaderSize) {
        // A short buffer is only "valid prefix" if what we do have
        // matches the header; otherwise fail fast.
        for (std::size_t i = 0; i < len && i < 4; ++i)
            if (data[i] !=
                static_cast<std::uint8_t>(kWireMagic >> (8 * i)))
                return DecodeStatus::Bad;
        return DecodeStatus::NeedMore;
    }
    Reader h(data, kWireHeaderSize);
    std::uint32_t magic = 0, payload_len = 0;
    std::uint16_t version = 0, type = 0;
    h.u32(magic);
    h.u16(version);
    h.u16(type);
    h.u32(payload_len);
    if (magic != kWireMagic || version != kWireVersion)
        return DecodeStatus::Bad;
    if (!knownType(type))
        return DecodeStatus::Bad;
    if (payload_len > kWireMaxPayload)
        return DecodeStatus::Bad;
    if (len < kWireHeaderSize + payload_len)
        return DecodeStatus::NeedMore;
    out.type = static_cast<FrameType>(type);
    if (!decodeBody(out.type, data + kWireHeaderSize, payload_len,
                    out))
        return DecodeStatus::Bad;
    consumed = kWireHeaderSize + payload_len;
    return DecodeStatus::Ok;
}

} // namespace net
} // namespace dpc
