/**
 * @file
 * Versioned, little-endian, length-prefixed wire framing for the
 * sharded DiBA deployment.
 *
 * Every message is one frame:
 *
 *       0       4       6       8       12
 *       +-------+-------+-------+------------------+
 *       | magic | ver   | type  | payload_len      |  12-byte header
 *       | u32   | u16   | u16   | u32              |
 *       +-------+-------+-------+------------------+
 *       | payload (payload_len bytes)              |
 *       +------------------------------------------+
 *
 * All integers are little-endian; f64 payload fields travel as
 * their raw IEEE-754 bit patterns (bit_cast through u64), so an
 * encode/decode round trip is *exact* for every double including
 * signed zeros, subnormals and NaN payloads -- the property the
 * bitwise shard-parity gate rests on.  The header carries the
 * protocol version on every frame, and a decoder accepts
 * kWireVersion only: every shard runs the same binary, so there is
 * one layout per frame type and nothing to negotiate.
 *
 * Frame types (CutBatch is the hot one -- all cut-edge halves a
 * shard owes one peer for one round, coalesced into MTU-sized
 * batches; the rest are control traffic):
 *
 *   Hello        shard -> broker   shard id + listening ports
 *   Welcome      broker -> shard   shard count + peer port table
 *   RoundGo      broker -> shard   final release ("Bye"); the
 *                                  per-round barrier rides on
 *                                  CutBatch dp reports
 *   Result       shard -> broker   final owned caps/estimates +
 *                                  wire stats + phase breakdown
 *   CutBatch     shard <-> shard   one batch of cut-edge halves:
 *                                  changed values as XOR-delta
 *                                  records against the canonical
 *                                  per-shard-pair cut list (quiesced
 *                                  values ship nothing), the
 *                                  boundary hot bitmap, piggybacked
 *                                  max-|dp| all-reduce reports and
 *                                  the configuration epoch
 *   EpochChange  broker -> shard   recovery phase after a shard
 *                                  death (Quiesce/Rollback/Resume)
 *   EpochAck     shard -> broker   phase acknowledgement + the
 *                                  shard's recovery inputs
 *   Heartbeat    shard -> broker   liveness beacon (distinguishes
 *                                  hung from slow)
 *
 * decodeFrame() is incremental (NeedMore on a short buffer) so the
 * same codec serves UDP datagrams (one frame per datagram) and TCP
 * byte streams (reassembly loop).
 */

#ifndef DPC_NET_WIRE_HH
#define DPC_NET_WIRE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dpc {
namespace net {

/** Frame magic: "DPCW" read as a little-endian u32. */
inline constexpr std::uint32_t kWireMagic = 0x57435044u;

/** The protocol version every frame header carries; the only one
 * this build encodes or decodes. */
inline constexpr std::uint16_t kWireVersion = 4;

/** Fixed header size in bytes. */
inline constexpr std::size_t kWireHeaderSize = 12;

/** Buckets of the edges-per-frame histogram: bucket b counts
 * frames carrying [2^b, 2^(b+1)) cut halves (last bucket open). */
inline constexpr std::size_t kEdgesPerFrameBuckets = 9;

/** Wire frame types.  Values 3 and 4 are retired (no frame of
 * this build carries them; the decoder rejects them). */
enum class FrameType : std::uint16_t
{
    Hello = 1,
    Welcome = 2,
    RoundGo = 5,
    Result = 6,
    CutBatch = 7,
    /** broker -> shard: epoch-fenced reconfiguration phases
     * (Quiesce / Rollback / Resume) after a confirmed shard
     * death. */
    EpochChange = 8,
    /** shard -> broker: acknowledgement of one EpochChange phase,
     * carrying the shard's recovery inputs. */
    EpochAck = 9,
    /** shard -> broker: liveness beacon; a hung (SIGSTOP) shard
     * stops sending these while its sockets stay open, which is
     * what distinguishes it from a slow one. */
    Heartbeat = 10,
};

/** Hello payload: shard announces itself to the broker.  `version`
 * repeats the header's and must equal kWireVersion. */
struct HelloMsg
{
    std::uint32_t shard_id = 0;
    std::uint16_t version = kWireVersion;
    std::uint16_t udp_port = 0;
    std::uint16_t tcp_port = 0;
};

/** Welcome payload: per-shard peer ports.  `agreed_version`
 * repeats the header's and must equal kWireVersion. */
struct WelcomeMsg
{
    std::uint16_t agreed_version = kWireVersion;
    std::uint32_t num_shards = 0;
    std::uint64_t rounds = 0;
    /** udp_ports[s], tcp_ports[s] for every shard s. */
    std::vector<std::uint16_t> udp_ports;
    std::vector<std::uint16_t> tcp_ports;
};

/** RoundGo payload: all shards finished `round`; proceed. */
struct RoundGoMsg
{
    std::uint64_t round = 0;
    double global_max_dp = 0.0;
    /** Nonzero: stop after this round (converged / budget). */
    std::uint8_t stop = 0;
};

/**
 * One piggybacked all-reduce report: the partial max |dp| of round
 * `round` together with the set of shards already folded into it.
 * The fold (mask union, max) is monotone and idempotent, so
 * retransmitted or reordered reports are harmless; a round's global
 * value is resolved once its mask covers every shard.
 */
struct DpReport
{
    std::uint64_t round = 0;
    std::uint64_t shard_mask = 0;
    double max_dp = 0.0;
};

/** Encodings of the seq-0 boundary hot bitmap (CutBatch): the
 * sender's active-set verdicts over the canonical per-pair
 * boundary node list, the wire half of the cross-shard wake
 * protocol.  AllHot/AllCold collapse the two stationary cases
 * (dense rounds, full quiescence) to one byte. */
inline constexpr std::uint8_t kHotNone = 0;   ///< seq > 0: no bitmap
inline constexpr std::uint8_t kHotSparse = 2; ///< sparse word entries
inline constexpr std::uint8_t kHotAll = 1;    ///< every node hot
inline constexpr std::uint8_t kHotClear = 3;  ///< every node cold

/** Encoded size of one unsigned LEB128 varint (1..10 bytes). */
inline std::size_t
varintSize(std::uint64_t v)
{
    std::size_t n = 1;
    while (v >= 0x80) {
        v >>= 7;
        ++n;
    }
    return n;
}

/**
 * One batch of cut-edge halves from `sender` for round `round`.
 * Record indices address the canonical per-shard-pair cut list
 * (cut edges between the two shards, ascending edge id) that both
 * endpoints derive independently from the shared overlay + plan.
 *
 * Unchanged halves ship NOTHING (the receiver holds the last
 * delivered value; the epoch fence invalidates the cache on
 * recovery), changed halves ship as XOR against the sender's
 * previous transmission of the same cut position (absolute on
 * first transmission after construction or an epoch change, when
 * both ends agree the cache is empty).  Converging estimates
 * differ in low mantissa bits only, so the XOR is a small integer
 * and its LEB128 varint is short; record indices are
 * gap-delta-coded (strictly ascending within a frame, first gap
 * absolute).  seq-0 frames declare the round's total record count
 * across all seqs -- completion is sender-driven, which is what
 * lets a fully-quiesced round consist of one 36-byte frame -- and
 * carry the sender's boundary hot bitmap (see kHot*).
 *
 * Payload layout (little-endian, v = unsigned LEB128 varint):
 *   u32 sender | u32 epoch | u64 round | u32 seq |
 *   u8 n_reports | u8 hot_mode | v n_changed |
 *   [seq == 0:   v total_changed] |
 *   [hot_mode == kHotSparse:
 *                v n_hot | n_hot x { v word_gap | v word }] |
 *   n_reports x { u64 round | u64 shard_mask | f64 max_dp } |
 *   n_changed x { v index_gap | v xor_bits }
 */
struct CutBatchMsg
{
    std::uint32_t sender = 0;
    /** Configuration epoch the batch belongs to; receivers in a
     * newer epoch drop it (the fence that keeps a pre-death
     * datagram out of a post-death round). */
    std::uint32_t epoch = 0;
    std::uint64_t round = 0;
    /** Batch sequence within (sender, receiver, round); the dedup
     * unit for UDP replays. */
    std::uint32_t seq = 0;
    std::vector<DpReport> reports;
    /** (position in the per-pair cut list, XOR of the raw IEEE
     * bits of the sender-owned estimate against the sender's
     * previous transmission); positions strictly ascending. */
    std::vector<std::pair<std::uint32_t, std::uint64_t>> changed;
    /** Seq 0 only: total changed records of this (peer, round)
     * across every seq -- the receiver's completion target. */
    std::uint32_t total_changed = 0;
    /** Seq 0 only: boundary hot bitmap encoding (kHot*). */
    std::uint8_t hot_mode = kHotNone;
    /** hot_mode == kHotSparse: (word index, word bits) entries
     * of the nonzero bitmap words, word indices strictly
     * ascending. */
    std::vector<std::pair<std::uint32_t, std::uint64_t>> hot_words;
};

/** Result payload: a shard's final owned state + wire accounting +
 * the per-phase round breakdown (seconds summed over rounds). */
struct ResultMsg
{
    std::uint32_t shard_id = 0;
    /** Epoch the reported state belongs to; the broker discards
     * Results from epochs older than its current one (a shard that
     * finished before the death re-runs and reports again). */
    std::uint32_t epoch = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t retrans_bytes = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t edges_suppressed = 0;
    /** CutBatch frames dropped by the epoch fence. */
    std::uint64_t stale_epoch_frames = 0;
    /** Frames abandoned without delivery: retained datagrams
     * dropped at an epoch change plus sends withheld from
     * suspected or blackholed peers. */
    std::uint64_t gaveup_frames = 0;
    /** Times a peer crossed the kSuspectAfter fruitless-tick
     * budget. */
    std::uint64_t suspect_events = 0;
    /** Bitmask of peers ever suspected (bit s = shard s). */
    std::uint64_t peer_suspected = 0;
    /** First-transmission CutBatch frames carrying zero
     * changed records (pure header + hot bitmap -- the quiesced
     * steady state). */
    std::uint64_t suppressed_frames = 0;
    /** First-transmission CutBatch frames carrying at least
     * one XOR-delta record. */
    std::uint64_t delta_frames = 0;
    /** Boundary-node wake notifications shipped (0 -> 1 hot
     * transitions against the previous round's sent bitmap). */
    std::uint64_t wake_messages = 0;
    std::array<std::uint64_t, kEdgesPerFrameBuckets>
        edges_per_frame_hist{};
    /** The shard's own last-round max |dp| (the broker maxes these
     * into the exact global final value). */
    double final_local_max_dp = 0.0;
    double phase_send_s = 0.0;
    double phase_interior_s = 0.0;
    double phase_drain_s = 0.0;
    double phase_boundary_s = 0.0;
    /** Wall seconds the shard spent inside its round loop (setup,
     * broker handshake and result shipping excluded); the slowest
     * shard's value is the cluster's steady-state round time. */
    double round_loop_s = 0.0;
    /** Parallel arrays over the shard's owned ids. */
    std::vector<std::uint32_t> node_ids;
    std::vector<double> power;
    std::vector<double> estimate;
};

/** Phases of the epoch-fenced recovery handshake. */
enum class EpochPhase : std::uint8_t
{
    /** Abort the in-flight round; report last completed round. */
    Quiesce = 0,
    /** Roll back to resume_round; fail the dead block's nodes and
     * report per-component held-budget partials. */
    Rollback = 1,
    /** Re-federate with the folded held budgets and resume the
     * round loop at resume_round. */
    Resume = 2,
};

/**
 * EpochChange payload: one phase of the broker-orchestrated
 * recovery after a confirmed shard death.
 *
 * Payload layout (little-endian):
 *   u32 epoch | u8 phase | u64 resume_round | u64 dead_mask |
 *   u32 n_held | n_held x f64
 */
struct EpochChangeMsg
{
    std::uint32_t epoch = 0;
    EpochPhase phase = EpochPhase::Quiesce;
    /** Rollback/Resume: first round every survivor re-runs (the
     * minimum last-completed round across survivors). */
    std::uint64_t resume_round = 0;
    /** Bitmask of shards confirmed dead (bit s = shard s). */
    std::uint64_t dead_mask = 0;
    /** Resume only: folded per-component held budgets, in
     * component-label order (ascending shard-id fold of the Ack2
     * partials -- every survivor applies the identical doubles). */
    std::vector<double> held;
};

/**
 * EpochAck payload: a shard's answer to one EpochChange phase.
 *
 * Payload layout (little-endian):
 *   u32 shard_id | u32 epoch | u8 phase | u64 last_completed |
 *   u32 n_comps | n_comps x { f64 sum_p | f64 sum_e }
 */
struct EpochAckMsg
{
    std::uint32_t shard_id = 0;
    std::uint32_t epoch = 0;
    EpochPhase phase = EpochPhase::Quiesce;
    /** Quiesce ack: rounds this shard has fully completed (its
     * checkpointed high-water mark). */
    std::uint64_t last_completed = 0;
    /** Rollback ack: per-component (sum p, sum e) partials over
     * the shard's OWNED active nodes in ascending id --
     * the broker folds these in ascending shard order. */
    std::vector<double> sum_p;
    std::vector<double> sum_e;
};

/** Heartbeat payload: shard liveness beacon on the broker link. */
struct HeartbeatMsg
{
    std::uint32_t shard_id = 0;
    std::uint32_t epoch = 0;
    /** Rounds completed so far (progress report, not a barrier). */
    std::uint64_t round = 0;
};

/** A decoded frame: type tag + the one active message. */
struct Frame
{
    FrameType type = FrameType::CutBatch;
    HelloMsg hello;
    WelcomeMsg welcome;
    RoundGoMsg round_go;
    ResultMsg result;
    CutBatchMsg cut_batch;
    EpochChangeMsg epoch_change;
    EpochAckMsg epoch_ack;
    HeartbeatMsg heartbeat;
};

/** Incremental decode outcome. */
enum class DecodeStatus
{
    Ok,       ///< one frame decoded; `consumed` bytes eaten
    NeedMore, ///< buffer holds a valid prefix; feed more bytes
    Bad,      ///< bad magic / version / length / payload; resync
};

/** Append one encoded frame to `out` (never fails). */
void encodeFrame(const Frame &frame, std::vector<std::uint8_t> &out);

/** Append one CutBatch frame to `out`: encodeFrame() of a CutBatch
 * frame carrying `msg`, without building the Frame. */
void encodeCutBatch(const CutBatchMsg &msg,
                    std::vector<std::uint8_t> &out);

/** Fixed part of one CutBatch frame, header included: the 12
 * byte header plus sender(4) + epoch(4) + round(8) + seq(4) +
 * n_reports(1) + hot_mode(1) = 34; everything else is varints
 * (n_changed, seq-0 totals, hot entries, records) the packer
 * accounts per item with varintSize(). */
inline constexpr std::size_t kCutBatchV4Fixed =
    kWireHeaderSize + 22;

/** Largest LEB128 encodings of a u32 and a u64. */
inline constexpr std::size_t kVarint32Max = 5;
inline constexpr std::size_t kVarint64Max = 10;

/**
 * Try to decode one frame from data[0..len).  Ok: `out` is filled
 * and `consumed` is the total frame size.  NeedMore: len is a
 * proper prefix of a valid frame (consumed = 0).  Bad: the bytes
 * cannot begin a frame this build accepts -- wrong magic, a
 * version other than kWireVersion, oversized or short payload,
 * unknown type (consumed = 0; a stream transport should drop the
 * connection, a datagram transport drops the datagram).
 */
DecodeStatus decodeFrame(const std::uint8_t *data, std::size_t len,
                         Frame &out, std::size_t &consumed);

/** Hard cap on payload_len (a decode guard against garbage
 * headers; generous for Result frames of large shards). */
inline constexpr std::uint32_t kWireMaxPayload = 1u << 28;

/** Smallest useful data-plane frame: a continuation CutBatch
 * carrying one changed record, at the packer's bounds (the fixed
 * part, an n_changed varint and one record of a u32 gap plus a
 * u64 XOR, each at its longest).  SocketTransport::Config::
 * datagram_budget must be at least this, or the batch packer
 * cannot make progress. */
inline constexpr std::size_t kMinFrameSize =
    kCutBatchV4Fixed + kVarint32Max + kVarint32Max + kVarint64Max;

} // namespace net
} // namespace dpc

#endif // DPC_NET_WIRE_HH
