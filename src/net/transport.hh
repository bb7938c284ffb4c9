/**
 * @file
 * The surface between DiBA's gossip rounds and what decides and
 * carries their messages: a fate oracle (GossipChannel) and a data
 * plane (Transport: an in-process loopback or real sockets between
 * shard processes).
 *
 * A DiBA round exchanges one estimate message per direction of
 * every live overlay edge, and the two directions of an edge form
 * one *paired transfer*: node u applies w * (e_v - e_u) while node
 * v applies w * (e_u - e_v) (exact IEEE negations of each other).
 * The fate oracle therefore decides the fate of the *pair*, not of
 * the individual directed messages: dropping the pair cancels both
 * halves, which is exactly what preserves the global bookkeeping
 * sum(e) == sum(p) - P under arbitrary loss; delaying the pair
 * makes both endpoints compute the transfer from the same stale
 * snapshot (lag rounds old), which keeps the halves antisymmetric
 * and hence the sum conserved under arbitrary staleness.
 *
 * Two layers live here, one per concern:
 *
 *  - GossipChannel: the per-round, per-edge *fate oracle* (decides
 *    delivered/dropped/stale; carries no bytes).  LossyChannel and
 *    GroundTruthChannel in dpc::fault implement it.  It is the
 *    only place fates come from: the synchronized round
 *    (DibaAllocator::iterateShard) and the async gossip tick
 *    (gossipTick) both take an optional channel.
 *
 *  - Transport: the data plane for synchronized rounds.  It
 *    carries the values of CUT edges (one endpoint in another
 *    process) into the caller's snapshot rows, plus the wake bits
 *    and the epoch abort, and decides nothing.  LoopbackTransport
 *    is the in-process identity (no cut); SocketTransport
 *    (net/socket_transport.hh) moves cut halves between shard
 *    processes as WireCodec frames, one synchronous round at a
 *    time.
 *
 * A round over a channel and a transport takes every pair's fate,
 * cut or not, from the channel alone; the transport only delivers
 * this round's peer halves, which a stale fate later reads back
 * from the history the channel's maxLag() keeps.
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
 * One cut pair offered to a Transport: the undirected edge, the
 * synchronized round it belongs to, and the endpoints' pre-round
 * snapshot estimates.  Endpoint ids are the overlay's canonical
 * pair (u < v), the same on every shard.  A sharded sender fills
 * only the halves it owns; the transport routes each half to the
 * peer that needs it.
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
 * The data plane of synchronized rounds: a pure carrier of values.
 * A transport decides no fates -- the round draws every pair's
 * fate from its optional GossipChannel -- it only moves the peer
 * halves of CUT edges (edges whose endpoints live in different
 * processes), the wake bits riding with them, and the epoch
 * abort.
 *
 * Round protocol (one synchronized round):
 *   1. beginRound(round, sink) -- sink is the caller's snapshot
 *      row of this round, the only path for incoming values;
 *   2. send() once per live cut pair (non-zero cutMask() entry),
 *      in increasing edge_id order;
 *   3. tryPoll() any number of times, then poll() once: every peer
 *      half that resolves is written straight into the sink row,
 *      and poll() returns once the round is complete (or aborted).
 */
class Transport
{
  public:
    virtual ~Transport() = default;

    /**
     * Per-overlay-edge cut mask (1: the edge crosses to another
     * process and must be offered every round; 0: both halves are
     * local), or nullptr when there is no cut at all.  Immutable
     * -- same address, same contents -- for the transport's
     * lifetime (callers cache derived state on its identity).
     */
    virtual const std::vector<std::uint8_t> *cutMask() const
    {
        return nullptr;
    }

    /**
     * Open synchronized round `round` (monotonic per caller).
     * `sink` is the caller's pre-round estimate snapshot, indexed
     * by node id: every incoming peer half of the round lands
     * there.  It must stay valid and unresized until the next
     * beginRound().
     */
    virtual void beginRound(std::uint64_t round, double *sink) = 0;

    /** Offer one live cut pair for this round. */
    virtual void send(const EdgePair &pair) = 0;

    /**
     * Block until the open round is complete: every peer half it
     * needs is filed into the sink, or the round aborted.
     */
    virtual void poll() {}

    /**
     * Non-blocking drain: file whatever peer halves have arrived
     * and return.  The round calls it between interior compute
     * chunks so the network drains while owned-interior nodes
     * compute.
     */
    virtual void tryPoll() {}

    /**
     * True after the transport aborted the open round from inside
     * poll() (an epoch change requested by a control plane rather
     * than a completed round).  The caller must discard the
     * round's partial state (roll back) before touching the
     * transport again.  In-process transports never abort.
     */
    virtual bool aborted() const { return false; }

    /**
     * Remote boundary wake view: the peer-owned endpoints of this
     * caller's cut edges (canonical ids) plus their
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
     * went hot on the other side.
     */
    virtual bool wakesSupported() const { return false; }

    /** The current remote wake view (see WakeView); meaningful
     * only when wakesSupported(). */
    virtual WakeView remoteWakes() const { return {}; }
};

/** The in-process identity transport: no cut, nothing to carry. */
class LoopbackTransport final : public Transport
{
  public:
    void beginRound(std::uint64_t, double *) override {}
    void send(const EdgePair &) override {}
};

} // namespace net

// Compatibility aliases: EdgeFate/GossipChannel predate dpc::net
// and the whole fault layer names them unqualified.
using net::EdgeFate;
using net::GossipChannel;

} // namespace dpc

#endif // DPC_NET_TRANSPORT_HH
