/**
 * @file
 * Socket-backed Transport between shard processes.
 *
 * Each shard owns a contiguous id block of the overlay
 * (ShardPlan, src/cluster/shard.hh).  The transport's cut mask
 * names the *cut* edges -- one endpoint owned here, the other
 * owned by a peer shard; every other pair is local and never
 * reaches the transport.  Offered cut pairs are exchanged as
 * WireCodec CutBatch frames: every half a shard owes one peer for
 * one round is coalesced into MTU-sized batches, addressed by
 * position in the canonical per-shard-pair cut list both endpoints
 * derive independently from the shared overlay + ownership map.
 * Halves whose value is bitwise-unchanged since the sender's last
 * transmission ship nothing (the receiver holds the last delivered
 * value), live halves ship as varint XOR-deltas against the
 * previous transmission, and each seq-0 batch declares the round's
 * record total, so a quiesced peer round costs one header-sized
 * frame.  Seq-0 batches also carry the sender's boundary hot
 * bitmap, the cross-shard wake channel.
 *
 * Incoming peer halves are written straight from the frame decode
 * into the caller's snapshot row (the sink handed to beginRound),
 * in canonical offer order once the round's batches resolve.  The
 * transport decides no fates: the caller draws any loss or lag
 * from its own channel.
 *
 * Compute/communication overlap: batches are packed and posted on
 * the first poll()/tryPoll() after the sends (the payloads are
 * pre-round snapshots, so nothing is gained by waiting), and
 * tryPoll() drains the sockets without blocking, so the caller can
 * interleave interior compute with the network flight time and
 * only park in poll() for the boundary residue.
 *
 * The per-round barrier is piggybacked on the data plane: each
 * seq-0 batch carries up to 8 max-|dp| all-reduce reports (round,
 * shard mask, partial max).  The fold (mask union, max) is
 * monotone and idempotent, so replays are harmless; a round
 * resolves once its mask covers every shard.  noteRoundDone()
 * contributes the local value, pollGlobalMax() drains resolved
 * rounds in order.  This is accounting (convergence bookkeeping)
 * -- it never blocks the data plane.
 *
 * Rounds are synchronous: poll() completes once the open round
 * has resolved, so every shard runs in lockstep with its adjacent
 * peers and the data plane binds and dials 127.0.0.1.
 *
 * Wire modes:
 *   Udp  one datagram socket per shard; batches are deduped by
 *        (sender, round, seq) and retransmitted on a timer while
 *        the round is incomplete (a duplicate old-round batch from
 *        a peer also triggers a replay of our retained rounds to
 *        it, which unsticks the peer without waiting for its
 *        timer);
 *   Tcp  pairwise streams (shard i connects to j < i, accepts
 *        j > i) with incremental frame reassembly; the kernel
 *        handles reliability.
 */

#ifndef DPC_NET_SOCKET_TRANSPORT_HH
#define DPC_NET_SOCKET_TRANSPORT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/transport.hh"
#include "net/wire.hh"

namespace dpc {
namespace net {

class SocketTransport final : public Transport
{
  public:
    enum class Proto
    {
        Udp,
        Tcp,
    };

    struct Config
    {
        /** This shard's id in [0, num_shards). */
        std::uint32_t shard_id = 0;
        std::uint32_t num_shards = 1;
        /** owner_of[node id] = owning shard. */
        std::vector<std::uint32_t> owner_of;
        /** Canonical overlay edge list (u < v; index = edge id) --
         * the shared input both sides of every shard pair derive
         * their cut-batch record indices from. */
        std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
        Proto proto = Proto::Udp;
        /** Retransmit/poll tick while a round is incomplete. */
        int retrans_ms = 20;
        /** Give-up bound for one round (dead peer). */
        int round_timeout_ms = 30000;
        /** Target packed size of one batch frame.  A seq-0 frame
         * whose fixed part (reports + hot bitmap) alone exceeds it
         * is sent oversized rather than split. */
        std::size_t datagram_budget = 1400;
        /**
         * Control-plane hook called from inside poll()'s wait loop
         * (never from the tryPoll hot path).  Return true to ABORT
         * the open round: poll() returns immediately with
         * aborted() set, instead of spinning until the round
         * timeout.  The shard runtime uses this to pump heartbeats
         * and to notice a broker EpochChange while blocked on a
         * dead peer.  Empty: a round that outlasts
         * round_timeout_ms is fatal, naming the peers it still
         * waits on.
         */
        std::function<bool()> tick;
        /**
         * The control-plane link (the shard runtime's broker
         * socket), or -1.  The transport never reads it; its
         * blocking waits just watch it next to the data plane, so
         * a control frame ends the wait at once instead of after
         * up to one retransmit tick.  poll() watches it only under
         * a `tick` (which must consume what arrived) and then runs
         * the tick; service() returns to its caller.  A wake from
         * this link alone is not a fruitless retransmit tick: no
         * resend, no suspicion.
         */
        int control_fd = -1;
    };

    /** Per-run wire accounting (the BENCH_wire numbers).
     * bytes_sent/frames_sent count FIRST transmissions only;
     * retransmits/retrans_bytes are separate so the bytes-per-round
     * gate stays deterministic under timing noise. */
    struct Stats
    {
        std::uint64_t frames_sent = 0;
        std::uint64_t bytes_sent = 0;
        std::uint64_t frames_received = 0;
        std::uint64_t bytes_received = 0;
        std::uint64_t retransmits = 0;
        std::uint64_t retrans_bytes = 0;
        /** Batches dropped by (sender, round, seq) dedup. */
        std::uint64_t duplicates = 0;
        /** Offered cut halves held unchanged (shipped nothing). */
        std::uint64_t edges_suppressed = 0;
        /** Histogram over first-transmitted batches: bucket b
         * counts frames carrying [2^b, 2^(b+1)) cut halves. */
        std::array<std::uint64_t, kEdgesPerFrameBuckets>
            edges_per_frame_hist{};
        /** CutBatch frames dropped by the epoch fence (stale
         * epoch != current epoch). */
        std::uint64_t stale_epoch_frames = 0;
        /** Frames abandoned without delivery: retained datagrams
         * dropped at an epoch change plus timer resends withheld
         * from suspected peers and sends eaten by a blackhole. */
        std::uint64_t gaveup_frames = 0;
        /** Times a peer crossed the kSuspectAfter budget. */
        std::uint64_t suspect_events = 0;
        /** Bitmask of peers ever suspected (sticky; bit s = shard
         * s).  A queryable record, not a correctness input. */
        std::uint64_t peer_suspected = 0;
        /** First-transmission frames with zero changed records
         * (one per fully-quiesced peer round). */
        std::uint64_t suppressed_frames = 0;
        /** First-transmission frames carrying XOR-delta records. */
        std::uint64_t delta_frames = 0;
        /** Boundary wake notifications shipped (0 -> 1 hot
         * transitions vs the previous round's sent bitmap). */
        std::uint64_t wake_messages = 0;
    };

    /** Binds the local data port (ephemeral; localPort() reports
     * it -- hand it to the broker in your Hello). */
    explicit SocketTransport(Config cfg);
    ~SocketTransport() override;

    SocketTransport(const SocketTransport &) = delete;
    SocketTransport &operator=(const SocketTransport &) = delete;

    /** The bound data port (UDP port or TCP listen port). */
    std::uint16_t localPort() const { return local_port_; }

    /**
     * Wire up the full peer mesh from the broker's port table
     * (ports[s] = shard s's data port on 127.0.0.1).  Must be
     * called once, after every shard has bound, before the first
     * beginRound.  In TCP mode this performs the connect/accept
     * handshake (lower id connects, higher id accepts).
     */
    void connectPeers(const std::vector<std::uint16_t> &ports);

    // Transport
    const std::vector<std::uint8_t> *cutMask() const override
    {
        return &cut_mask_;
    }
    void beginRound(std::uint64_t round, double *sink) override;
    void send(const EdgePair &pair) override;
    void poll() override;
    void tryPoll() override;

    /** The wake channel rides seq-0 frames: EdgePair hot bits
     * are folded into per-peer boundary bitmaps on send and the
     * peers' bitmaps are applied to the wake view as their rounds
     * emit (strict round order, same timing as the value
     * patches). */
    bool wakesSupported() const override { return true; }

    /** Peer-owned boundary nodes (per-peer ascending id,
     * peers concatenated ascending shard id) + their current hot
     * bits; all-hot at construction and after an epoch change. */
    WakeView remoteWakes() const override
    {
        WakeView w;
        w.nodes = wake_nodes_.data();
        w.hot = wake_hot_.data();
        w.count = wake_nodes_.size();
        return w;
    }

    /**
     * Keep the data plane alive while the shard is parked outside
     * poll() -- e.g. waiting for the broker's final release.  Waits
     * up to one retransmit tick for incoming frames, returning as
     * soon as Config::control_fd turns readable; a duplicate from
     * a peer still mid-round triggers a replay of our retained
     * rounds to it.  Without this, a shard that finishes its last
     * round and blocks on the broker goes deaf: a peer that lost
     * datagrams retransmits into the void until it times out.
     * Before the first beginRound, and on TCP (whose peers never
     * need a replay), it waits on the control link alone.
     */
    void service();

    /** Fold this shard's round max |dp| into the piggybacked
     * all-reduce (rides on the NEXT round's batches). */
    void noteRoundDone(std::uint64_t round, double local_max_dp);

    /** Drain the next globally resolved round max |dp|, in round
     * order; false when none is resolved yet.  Purely accounting:
     * an unresolved tail at exit is legitimate. */
    bool pollGlobalMax(std::uint64_t &round, double &global_max_dp);

    /** True after Config::tick aborted the open round (the caller
     * must roll back and call epochChange before reusing the
     * transport). */
    bool aborted() const override { return abort_; }

    /** Current configuration epoch (stamped on every CutBatch). */
    std::uint32_t epoch() const { return epoch_; }

    /**
     * Enter configuration epoch `epoch` after the broker confirmed
     * the shards in `dead_mask` dead and every survivor rolled back
     * to `resume_round` completed rounds.  Closes dead peers' TCP
     * streams, drops every retained datagram and half-packed batch
     * (counted as gaveup frames -- they belong to the old epoch and
     * may encode discarded speculation), resets the suppression
     * caches on BOTH directions (the first post-recovery round
     * ships every value explicitly, so sender and receiver caches
     * cannot disagree across the rollback), clears the rx/dp
     * windows to resume at `resume_round`, shrinks the all-reduce
     * mask to the survivors, and clears the abort flag.  Stale
     * datagrams still in the socket buffer are fenced off by their
     * epoch field.
     */
    void epochChange(std::uint32_t epoch, std::uint64_t dead_mask,
                     std::uint64_t resume_round);

    /**
     * Fault injection: silently drop every datagram addressed to
     * `peer` for the next `duration_ms` of wall clock (UDP only;
     * dropped sends count as gaveup frames).  First transmissions
     * are still retained, so once the hole heals the normal
     * retransmit/nudge machinery re-delivers them -- the round
     * completes late but bitwise identical.
     */
    void setBlackhole(std::uint32_t peer, int duration_ms);

    const Stats &stats() const { return stats_; }
    const Config &config() const { return cfg_; }

    /** This shard's cut edges (ascending edge id). */
    std::size_t numCutEdges() const { return cut_.size(); }

    /** dp reports per seq-0 batch (count is deterministic --
     * min(kMaxDpReports, round + 1) -- so bytes/round is too).
     * Public: the steady-state byte ceiling is derived from it. */
    static constexpr std::size_t kMaxDpReports = 8;

  private:
    static constexpr std::uint32_t kNoCut = 0xffffffffu;
    static constexpr std::uint64_t kNoRound = ~0ull;
    /** all-reduce window: in-flight unresolved rounds. */
    static constexpr std::size_t kDpWindow = 64;
    /** Retained tx rounds per peer (UDP replays). */
    static constexpr std::size_t kTxWindow = 3;
    /** rx slots: the open round plus peer rounds filed early. */
    static constexpr std::size_t kRxWindow = 4;
    /**
     * Retransmit budget per peer: after this many consecutive
     * fruitless retransmit ticks while a peer still owes the
     * oldest unresolved round, the peer is SUSPECTED (stats) and
     * blind timer resends to it stop (each skipped resend counts
     * as a gaveup frame).  Dup-triggered replays stay on, so a
     * merely slow peer unsticks itself; the budget resets the
     * moment the peer's traffic files anything.  Suspicion is a
     * local hint -- correctness-critical death handling rides on
     * the broker obituary via Config::tick.
     */
    static constexpr int kSuspectAfter = 50;

    /** One cut edge incident to this shard. */
    struct CutEdge
    {
        std::uint32_t edge_id = 0;
        std::uint32_t u = 0;
        std::uint32_t v = 0;
        /** The other shard. */
        std::uint32_t peer = 0;
        /** Position in the (me, peer) per-pair cut list -- the
         * wire record index. */
        std::uint32_t pair_pos = 0;
        /** Position of the OWN endpoint in the (me, peer) boundary
         * node list (the wake bitmap bit index). */
        std::uint32_t own_pos = 0;
        /** Position of the PEER endpoint in the peer's boundary
         * node list = index into rx_nodes_[peer] / the wake view
         * segment of that peer. */
        std::uint32_t peer_pos = 0;
        /** We own u (else we own v). */
        bool own_u = false;
    };

    /** Per-peer, per-round outgoing accumulation (built during
     * send(), packed at flush). */
    struct TxAccum
    {
        std::vector<std::pair<std::uint32_t, std::uint64_t>> changed;
        std::uint32_t suppressed = 0;
        /** Boundary hot bitmap over tx_nodes_[peer] (words), folded
         * from EdgePair hot bits during send(). */
        std::vector<std::uint64_t> hot;
    };

    /** Retained first-transmission datagrams of one (peer, round)
     * for UDP replays. */
    struct TxRound
    {
        std::uint64_t round = kNoRound;
        std::vector<std::vector<std::uint8_t>> datagrams;
    };

    /** One round's incoming cut state, aggregated across peers. */
    struct RxSlot
    {
        std::uint64_t round = kNoRound;
        /** The peer half's raw XOR against its previous emitted
         * value, by cut_ index, resolved at emit time in strict
         * round order. */
        std::vector<std::uint64_t> val;
        /** 1 filed, 0 held: the sender-declared totals decide
         * completion, and an unfiled position at emit time means
         * the sender shipped nothing for it. */
        std::vector<std::uint8_t> st;
        /** cut_ indices this shard offered in the round, in send
         * order; identical replicas make it equal to what every
         * peer sent (the emit order). */
        std::vector<std::uint32_t> offered;
        /** Sends for the round are complete (offered is final). */
        bool open = false;
        /** Per-peer (round, seq) dedup bitsets. */
        std::vector<std::vector<std::uint64_t>> seq_seen;
        /** Per-peer sender-declared record totals (from seq-0
         * frames) and the records filed so far. */
        std::vector<std::uint32_t> decl;
        std::vector<std::uint8_t> decl_seen;
        std::vector<std::uint32_t> got;
        /** Per-peer boundary hot bitmap as shipped on seq 0
         * (mode + sparse words), applied to the wake view when the
         * round emits. */
        std::vector<std::uint8_t> hot_mode;
        std::vector<std::vector<std::pair<std::uint32_t,
                                          std::uint64_t>>>
            hot_words;
    };

    /** One in-flight all-reduce round. */
    struct DpEntry
    {
        std::uint64_t round = kNoRound;
        std::uint64_t mask = 0;
        double max_dp = 0.0;
    };

    std::uint32_t ownerOf(std::uint32_t node) const;
    void buildCutLists();

    /** Pack this round's accumulated records for peer s into delta
     * frames (seq-0 declares the totals and carries the hot
     * bitmap). */
    void flushPeer(std::uint32_t s,
                   const std::vector<DpReport> &reports);

    /** Apply one emitted round's hot bitmap from peer s to the
     * wake view segment. */
    void applyHotWords(std::uint32_t s, std::uint8_t mode,
                       const std::vector<std::pair<std::uint32_t,
                                                   std::uint64_t>>
                           &words);

    /** Round completion waits on peer s: another shard sharing
     * cut edges with this one and not confirmed dead. */
    bool awaited(std::uint32_t s) const;

    /** Round completion for one peer: seq-0 seen and every
     * declared record filed. */
    bool peerDone(const RxSlot &slot, std::uint32_t s) const;

    /** The (possibly lazily initialized) rx slot for `round`. */
    RxSlot &rxSlot(std::uint64_t round);

    /** Pack and post this round's batches (idempotent; called from
     * the first poll()/tryPoll() after the sends). */
    void ensureFlushed();

    /** Encode + transmit one batch to peer s; retain it (UDP). */
    void transmitBatch(std::uint32_t s, const CutBatchMsg &msg,
                       std::size_t halves);

    /** Resend retained round datagrams to peer s (UDP only). */
    void resendRound(std::uint32_t s, std::uint64_t round);

    /** Dup-triggered replay of [from, round_] to peer s. */
    void nudgePeer(std::uint32_t s, std::uint64_t from);

    /** What ended one receiveSome() wait (neither: it timed
     * out). */
    struct Wake
    {
        /** At least one data-plane frame was consumed. */
        bool data = false;
        /** Config::control_fd turned readable. */
        bool control = false;
    };

    /** Wait up to timeout_ms for bytes on the data plane (when
     * `data_plane`) or on the control link (when `control`);
     * decode and file the data frames. */
    Wake receiveSome(int timeout_ms, bool data_plane, bool control);

    /** File one decoded CutBatch. */
    void fileBatch(const CutBatchMsg &msg);

    /** Fold one all-reduce report; resolve in round order. */
    void foldReport(const DpReport &rep);

    /** The up-to-n oldest unresolved all-reduce reports (padded to
     * exactly n for deterministic frame sizes). */
    std::vector<DpReport> selectDpReports(std::size_t n) const;

    /** Emit resolved rx rounds in order (gated to <= round_):
     * update the replay cache and write the peer halves into the
     * sink row. */
    void resolveRx();

    /** The open round fully emitted. */
    bool roundComplete() const;

    void fatalTimeout();

    /** One fruitless retransmit tick: expire blackholes, resend
     * the open round to peers still owed (within their suspicion
     * budget), and advance the per-peer suspicion counters. */
    void tickRetransmit();

    /** Outgoing traffic to `s` is currently blackholed. */
    bool blackholed(std::uint32_t s) const;

    /** TCP: the stream to `s` failed (EOF or a connection error).
     * Under a control-plane tick this is a suspected death --
     * close the fd, stop talking, await the broker obituary. */
    void peerStreamDown(std::uint32_t s);

    /** TCP: send the whole buffer to `s`, degrading connection
     * errors to peerStreamDown() under a control-plane tick
     * (fatal without one, as before).  False = stream lost. */
    bool trySendStream(std::uint32_t s, const std::uint8_t *data,
                       std::size_t len);

    Config cfg_;
    std::uint16_t local_port_ = 0;
    int sock_ = -1;               ///< UDP data / TCP listen socket
    std::vector<int> peer_fd_;    ///< TCP: per-shard stream fd
    std::vector<std::uint16_t> peer_port_; ///< UDP: per-shard port
    std::vector<std::vector<std::uint8_t>> reasm_; ///< TCP buffers

    std::uint64_t round_ = 0;
    bool started_ = false;
    bool flushed_ = false;

    /** Cut edges incident to this shard, ascending edge id. */
    std::vector<CutEdge> cut_;
    /** edge id -> cut_ index (kNoCut for non-cut edges). */
    std::vector<std::uint32_t> cut_of_edge_;
    /** cutMask(): 1 exactly where cut_of_edge_ is a real cut
     * index (the pairs the caller offers). */
    std::vector<std::uint8_t> cut_mask_;
    /** The open round's sink row (the caller's snapshot), replaced
     * by every beginRound. */
    double *sink_ = nullptr;
    /** cut_ index -> the peer-owned node, the row slot its patch
     * lands in. */
    std::vector<std::uint32_t> cut_patch_slot_;
    /** pair_cut_[s] = cut_ indices shared with shard s, ascending
     * edge id (the per-pair record index space). */
    std::vector<std::vector<std::uint32_t>> pair_cut_;
    /** tx_nodes_[s] = OWN boundary nodes of the (me, s) pair,
     * ascending id (the outgoing wake bitmap's bit
     * space; the peer derives the identical list). */
    std::vector<std::vector<std::uint32_t>> tx_nodes_;
    /** rx_nodes_[s] = PEER-owned boundary nodes of the (me, s)
     * pair, ascending id (the incoming bitmap's bit
     * space; equals the peer's tx_nodes_[me]). */
    std::vector<std::vector<std::uint32_t>> rx_nodes_;
    /** Previous round's SENT hot words per peer (wake_messages
     * accounting; all-hot at construction and epoch change, like
     * a fresh frontier). */
    std::vector<std::vector<std::uint64_t>> tx_hot_last_;
    /** Flattened rx_nodes_ (peers ascending) = WakeView::nodes. */
    std::vector<std::uint32_t> wake_nodes_;
    /** Current remote hot bits, parallel to wake_nodes_. */
    std::vector<std::uint8_t> wake_hot_;
    /** wake_base_[s] = offset of peer s's segment in wake_*. */
    std::vector<std::size_t> wake_base_;

    /** Last-transmitted own-half bits per cut_ index (suppression
     * reference; the receiver mirrors it as rx_val_). */
    std::vector<std::uint64_t> tx_last_;
    std::vector<std::uint8_t> tx_has_;
    std::vector<TxAccum> tx_;
    /** [peer * kTxWindow + round % kTxWindow] */
    std::vector<TxRound> tx_ring_;
    /** Encode buffer of transmitBatch (reused across frames; the
     * retransmit ring keeps exact-size copies). */
    std::vector<std::uint8_t> tx_frame_;

    /** Last-emitted peer-half bits per cut_ index. */
    std::vector<std::uint64_t> rx_val_;
    std::vector<std::uint8_t> rx_has_;
    std::vector<RxSlot> rx_ring_; ///< [round % kRxWindow]
    /** Rounds [0, rx_emitted_) fully resolved and emitted. */
    std::uint64_t rx_emitted_ = 0;

    /** Piggybacked all-reduce state. */
    std::vector<DpEntry> dp_win_;
    std::uint64_t dp_emitted_ = 0;
    std::uint64_t all_mask_ = 1;
    std::vector<std::pair<std::uint64_t, double>> dp_ready_;
    std::size_t dp_head_ = 0;

    /** Rate limit for dup-triggered replays (one per drain). */
    bool replayed_this_poll_ = false;

    /** Current configuration epoch (stamped on every CutBatch;
     * batches from other epochs are fenced off in fileBatch). */
    std::uint32_t epoch_ = 0;
    /** Config::tick aborted the open round. */
    bool abort_ = false;
    /** peer_alive_[s] = 0 once the broker declared s dead (or its
     * TCP stream closed under a fault-tolerant run). */
    std::vector<std::uint8_t> peer_alive_;
    /** Bit s set once an epoch fence CONFIRMED shard s dead.  The
     * sender-driven completion may only skip these: a peer
     * whose stream merely went down (suspected, obituary pending)
     * must keep blocking resolution, or the survivor races ahead
     * on held values instead of parking in poll() where the
     * control-plane tick can quiesce it. */
    std::uint64_t peer_dead_mask_ = 0;
    /** Consecutive fruitless retransmit ticks per peer while it
     * owes the oldest unresolved round (suspicion counter). */
    std::vector<int> peer_ticks_;
    /** Wall-clock ms until which outgoing traffic to each peer is
     * blackholed (0 = clear). */
    std::vector<std::int64_t> blackhole_until_;

    Stats stats_;
};

} // namespace net
} // namespace dpc

#endif // DPC_NET_SOCKET_TRANSPORT_HH
