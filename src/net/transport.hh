/**
 * @file
 * The unified transport surface between DiBA's gossip rounds and
 * whatever actually carries the messages: an in-process loopback, a
 * fault-model decorator, or real sockets between shard processes.
 *
 * A DiBA round exchanges one estimate message per direction of
 * every live overlay edge, and the two directions of an edge form
 * one *paired transfer*: node u applies w * (e_v - e_u) while node
 * v applies w * (e_u - e_v) (exact IEEE negations of each other).
 * The transport therefore decides the fate of the *pair*, not of
 * the individual directed messages: dropping the pair cancels both
 * halves, which is exactly what preserves the global bookkeeping
 * sum(e) == sum(p) - P under arbitrary loss; delaying the pair
 * makes both endpoints compute the transfer from the same stale
 * snapshot (lag rounds old), which keeps the halves antisymmetric
 * and hence the sum conserved under arbitrary staleness.
 *
 * Two layers live here:
 *
 *  - GossipChannel: the per-round, per-edge *fate oracle* (decides
 *    delivered/dropped/stale; carries no bytes).  LossyChannel and
 *    GroundTruthChannel in dpc::fault implement it; the async
 *    gossip entry points (gossipTick / gossipSweep) consume it
 *    directly because a tick has no payload to move.
 *
 *  - Transport: the byte-carrying pair pipeline for synchronized
 *    rounds.  The allocator offers every live pair with send(), the
 *    transport decides (or discovers, over a real network) each
 *    pair's fate, and poll() drains the observable outcomes --
 *    EdgeFate plus, for pairs whose peer endpoint lives in another
 *    process, the authoritative remote estimate payload.
 *    LoopbackTransport adapts any GossipChannel and is pinned
 *    bitwise-identical to the historical channel-routed round;
 *    SocketTransport (net/socket_transport.hh) moves cut-edge
 *    pairs between shard processes as WireCodec frames;
 *    LossyTransport (fault/lossy_channel.hh) decorates any of them
 *    with the seeded loss/burst/delay processes.
 */

#ifndef DPC_NET_TRANSPORT_HH
#define DPC_NET_TRANSPORT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dpc {
namespace net {

/** Fate of one paired estimate exchange on an overlay edge. */
struct EdgeFate
{
    /** False: the pair is dropped, neither half is applied. */
    bool delivered = true;

    /**
     * Staleness in rounds: 0 applies this round's snapshot, d > 0
     * applies the snapshot from d rounds ago (both endpoints use
     * the same lagged snapshot).  Must be <= maxLag().
     */
    std::uint32_t lag = 0;
};

/** Per-round, per-edge transport decision source (fate oracle). */
class GossipChannel
{
  public:
    virtual ~GossipChannel() = default;

    /**
     * Called once at the start of every synchronized round, before
     * any fate() query, with the total undirected edge count of
     * the overlay.  Asynchronous (gossipTick) drivers instead call
     * fate() directly, one edge per tick.
     */
    virtual void beginRound(std::size_t num_edges) = 0;

    /**
     * Fate of the paired exchange on undirected edge `edge_id`
     * with endpoints {u, v}, u < v.  Queried at most once per
     * round per edge, in increasing edge_id order (the canonical
     * overlay enumeration), so sequential draws from one seeded
     * generator are reproducible.
     */
    virtual EdgeFate fate(std::size_t edge_id, std::size_t u,
                          std::size_t v) = 0;

    /**
     * Upper bound on any lag fate() will ever return; the
     * allocator keeps maxLag() + 1 rounds of estimate history.
     */
    virtual std::size_t maxLag() const = 0;
};

/**
 * One paired estimate transfer offered to a Transport: the
 * undirected edge, the synchronized round it belongs to, and the
 * endpoints' pre-round snapshot estimates.  Endpoint ids are the
 * canonical ORIGINAL ids (u < v), so fault plans, channel seeds
 * and wire frames address the same physical link under every
 * Config::layout.  A sharded sender fills only the halves it owns;
 * the transport is responsible for routing each half to the peer
 * that needs it.
 */
struct EdgePair
{
    std::uint32_t edge_id = 0;
    std::uint32_t u = 0;
    std::uint32_t v = 0;
    std::uint64_t round = 0;
    double e_u = 0.0;
    double e_v = 0.0;
    /** Active-set verdicts of the endpoints entering this round
     * (the cross-shard wake channel: a wake-capable transport
     * ships the sender-owned bit to the peer so a node going hot
     * re-activates its cut neighbours there).  Dense senders leave
     * both true; a sharded sender's bit is authoritative only for
     * the halves it owns, mirroring e_u/e_v. */
    bool hot_u = true;
    bool hot_v = true;
};

/**
 * Observable outcome of one offered pair: the fate both endpoints
 * must apply, plus the payload as delivered.  update_u / update_v
 * flag the halves whose authoritative value arrived from another
 * process (the receiver must fold them into its snapshot before
 * diffusing); an in-process transport leaves both false.  Payload
 * updates are independent of the fate: a dropped pair still
 * refreshes the peer estimate (the frame flowed; only the transfer
 * was cancelled), which is what keeps lagged snapshots exact on
 * every shard.
 */
struct Delivery
{
    EdgePair pair;
    EdgeFate fate;
    bool update_u = false;
    bool update_v = false;
};

/**
 * The byte-carrying pair pipeline for synchronized rounds.
 *
 * Round protocol (one synchronized round):
 *   1. beginRound(round, num_edges) -- num_edges is the total
 *      undirected edge count of the overlay (fate oracles size
 *      their per-edge state from it);
 *   2. send() once per live pair, in increasing edge_id order (the
 *      canonical overlay enumeration -- the order seeded fate
 *      draws are reproducible in);
 *   3. poll() until it returns false: exactly one Delivery per
 *      offered pair, in any order.  poll() may block while remote
 *      halves are in flight.
 *
 * A pair the caller never offered (masked edge, dead endpoint)
 * gets no delivery and consumes no fate draw.
 */
class Transport
{
  public:
    virtual ~Transport() = default;

    /** Open synchronized round `round` (monotonic per caller). */
    virtual void beginRound(std::uint64_t round,
                            std::size_t num_edges) = 0;

    /** Offer one live pair for this round. */
    virtual void send(const EdgePair &pair) = 0;

    /** Drain the next decided delivery for the open round; false
     * when every offered pair has been delivered. */
    virtual bool poll(Delivery &out) = 0;

    /**
     * Non-blocking drain: hand out a delivery that is decidable
     * RIGHT NOW, or return false without waiting.  Unlike poll(),
     * false does not mean the round is complete.  The default
     * delegates to poll(), which is correct for any transport
     * whose poll() never blocks (loopback); blocking transports
     * override it.  The round's compute/communication overlap
     * schedule calls this between interior work chunks so the
     * network drains while owned-interior nodes compute.
     */
    virtual bool tryPoll(Delivery &out) { return poll(out); }

    /**
     * True after the transport aborted the open round from inside
     * poll() (an epoch change requested by a control plane rather
     * than a completed round).  poll() then returns false with the
     * round still incomplete; the caller must discard the round's
     * partial state (roll back) before touching the transport
     * again.  In-process transports never abort.
     */
    virtual bool aborted() const { return false; }

    /**
     * Optional offer-elision contract.  A fate-neutral transport
     * (one that never drops or lags a pair on its own) may return
     * a per-overlay-edge mask here; nullptr (the default) declines.
     * A caller that claims the mask commits, for every subsequent
     * round, to filing pair fates itself: {delivered, lag 0} for
     * every live pair whose mask entry is ZERO (which it then need
     * not offer at all), and {delivered, maxLag()} for every pair
     * it does offer.  The transport in turn stops echoing offered
     * pairs back and delivers ONLY update-flagged snapshot patches.
     * This elides the offer/queue/poll round trip for the pairs the
     * transport would only echo (a sharded transport masks just its
     * cut edges -- ~10% of the overlay at n = 25600 / 2 shards --
     * so the round's transport cost scales with the CUT, not the
     * edge set).  Pairs with a non-zero entry MUST still be
     * offered, and the mask must be immutable -- same address,
     * same contents -- for the transport's remaining lifetime
     * (callers cache derived state on its identity).  Any
     * transport backed by a per-edge fate oracle must decline: it
     * needs the full canonical offer sequence to keep seeded draws
     * reproducible AND its fates reach the caller as pair echoes,
     * which is why the lossy decorator never claims (or forwards)
     * an inner transport's mask.
     */
    virtual const std::vector<std::uint8_t> *claimOfferElision()
    {
        return nullptr;
    }

    /**
     * Destination for direct snapshot patching (see
     * filePatchesInto).  rows[a] points at the caller's estimate
     * snapshot from a rounds before the open round; a patch whose
     * age exceeds nrows - 1 clamps to the oldest row (the same
     * clamp the caller applies to queued patch deliveries in its
     * first rounds after a reset).  slot_of maps an ORIGINAL node
     * id to its index within a row (nullptr: rows are indexed by
     * original id directly).
     */
    struct PatchSink
    {
        double *const *rows = nullptr;
        std::size_t nrows = 0;
        const std::uint32_t *slot_of = nullptr;
    };

    /**
     * Under claimed offer elision the only deliveries left are
     * update-flagged snapshot patches; a caller that would just
     * copy each one into its history ring can instead hand the
     * transport the ring itself.  Returns true if the transport
     * accepts: for the rest of the OPEN round it writes every
     * patch half directly -- rows[min(age, nrows-1)][slot] =
     * value, exactly the bits the queued delivery would have
     * carried -- and poll()/tryPoll() deliver nothing (they still
     * pump the wire; poll() still blocks until the round
     * completes).  The registration lasts one round: the caller
     * must re-register after every beginRound() (its row addresses
     * rotate), and the rows must stay valid and unresized for the
     * round.  The default declines, which keeps queued patch
     * deliveries flowing.
     */
    virtual bool filePatchesInto(const PatchSink &)
    {
        return false;
    }

    /**
     * Remote boundary wake view: the peer-owned endpoints of this
     * caller's cut edges (canonical ORIGINAL ids) plus their
     * current active-set bits as last carried by the wire.  The
     * arrays are stable for the transport's lifetime (nodes never
     * move; bits are refreshed in place as rounds resolve), start
     * all-hot (matching a freshly reset frontier), and reset to
     * all-hot on an epoch change (matching the caller's rollback
     * reheat).  `count == 0` on transports with no remote peers.
     */
    struct WakeView
    {
        const std::uint32_t *nodes = nullptr;
        const std::uint8_t *hot = nullptr;
        std::size_t count = 0;
    };

    /**
     * True when this transport carries EdgePair hot bits to remote
     * peers and maintains remoteWakes() from theirs.  A sparse
     * (active-set) sharded round requires it: without the wake
     * channel a shard cannot learn that a quiesced cut neighbour
     * went hot on the other side.  Default: not supported (a
     * caller with no remote nodes never needs it; the lossy
     * decorator deliberately does not forward support, which
     * safely pins fault-model runs to the dense round path).
     */
    virtual bool wakesSupported() const { return false; }

    /** The current remote wake view (see WakeView); meaningful
     * only when wakesSupported(). */
    virtual WakeView remoteWakes() const { return {}; }

    /** Upper bound on any fate lag poll() will ever report. */
    virtual std::size_t maxLag() const = 0;
};

/**
 * In-process adapter wrapping a GossipChannel fate oracle: send()
 * queries the channel immediately (so the channel sees exactly the
 * historical query order and arguments -- one seeded channel yields
 * one reproducible fault pattern whether it is consumed through
 * this adapter or through the legacy chan.fate() loop), and poll()
 * replays the decisions FIFO.  Pinned bitwise-identical to the
 * pre-Transport GossipChannel round path by construction; the
 * whole fault/recovery/layout suite runs through it.
 */
class LoopbackTransport final : public Transport
{
  public:
    /** Adapt an external fate oracle (not owned). */
    explicit LoopbackTransport(GossipChannel &chan) : chan_(&chan) {}

    /** The identity transport: every pair delivered fresh. */
    LoopbackTransport() = default;

    void beginRound(std::uint64_t, std::size_t num_edges) override
    {
        if (chan_ != nullptr)
            chan_->beginRound(num_edges);
        queue_.clear();
        head_ = 0;
    }

    void send(const EdgePair &pair) override
    {
        Delivery d;
        d.pair = pair;
        if (chan_ != nullptr)
            d.fate = chan_->fate(pair.edge_id, pair.u, pair.v);
        queue_.push_back(d);
    }

    bool poll(Delivery &out) override
    {
        if (head_ >= queue_.size())
            return false;
        out = queue_[head_++];
        return true;
    }

    std::size_t maxLag() const override
    {
        return chan_ != nullptr ? chan_->maxLag() : 0;
    }

  private:
    GossipChannel *chan_ = nullptr;
    std::vector<Delivery> queue_;
    std::size_t head_ = 0;
};

} // namespace net

// Compatibility aliases: EdgeFate/GossipChannel predate dpc::net
// and the whole fault layer names them unqualified.
using net::EdgeFate;
using net::GossipChannel;

} // namespace dpc

#endif // DPC_NET_TRANSPORT_HH
