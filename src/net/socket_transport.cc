#include "net/socket_transport.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/logging.hh"

namespace dpc {
namespace net {

namespace {

sockaddr_in
hostAddr(const std::string &host, std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (host.empty())
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    else
        DPC_ASSERT(::inet_pton(AF_INET, host.c_str(),
                               &addr.sin_addr) == 1,
                   "bad IPv4 address '", host, "'");
    return addr;
}

sockaddr_in
peerAddr(const SocketTransport::Config &cfg, std::uint32_t s,
         std::uint16_t port)
{
    return hostAddr(s < cfg.hosts.size() ? cfg.hosts[s]
                                         : std::string(),
                    port);
}

int
boundSocket(int type, const std::string &bind_host,
            std::uint16_t &port_out)
{
    const int fd = ::socket(AF_INET, type, 0);
    DPC_ASSERT(fd >= 0, "socket(): ", std::strerror(errno));
    if (type == SOCK_STREAM) {
        // Listener only: on a UDP socket SO_REUSEADDR lets the
        // port-0 autobind hand out a port another SO_REUSEADDR
        // datagram socket already holds, so two concurrent runs
        // could share a port and read each other's batches.
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    } else {
        // A round's cut-edge burst at large n overruns the stock
        // ~212 KB datagram buffers, and every overrun costs a
        // retransmit tick to recover.  The *FORCE variants ignore
        // rmem_max/wmem_max under CAP_NET_ADMIN; fall back to the
        // clamped plain options otherwise (best effort).
        const int big = 8 << 20;
#ifdef SO_RCVBUFFORCE
        if (::setsockopt(fd, SOL_SOCKET, SO_RCVBUFFORCE, &big,
                         sizeof(big)) != 0)
#endif
            ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &big,
                         sizeof(big));
#ifdef SO_SNDBUFFORCE
        if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUFFORCE, &big,
                         sizeof(big)) != 0)
#endif
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &big,
                         sizeof(big));
    }
    sockaddr_in addr = hostAddr(bind_host, 0);
    DPC_ASSERT(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0,
               "bind(): ", std::strerror(errno));
    socklen_t len = sizeof(addr);
    DPC_ASSERT(::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                             &len) == 0,
               "getsockname(): ", std::strerror(errno));
    port_out = ntohs(addr.sin_port);
    return fd;
}

std::int64_t
nowMs()
{
    using namespace std::chrono;
    return duration_cast<milliseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

void
sendAll(int fd, const std::uint8_t *data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        const ssize_t k = ::send(fd, data + off, len - off,
#ifdef MSG_NOSIGNAL
                                 MSG_NOSIGNAL
#else
                                 0
#endif
        );
        if (k < 0) {
            if (errno == EINTR)
                continue;
            fatal("shard stream send failed: ",
                  std::strerror(errno));
        }
        off += static_cast<std::size_t>(k);
    }
}

std::uint64_t
bitsOf(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

double
doubleOf(std::uint64_t b)
{
    double d;
    std::memcpy(&d, &b, sizeof(d));
    return d;
}

std::size_t
histBucket(std::size_t halves)
{
    std::size_t b = 0;
    while ((halves >> (b + 1)) != 0 &&
           b + 1 < kEdgesPerFrameBuckets)
        ++b;
    return b;
}

bool
testAndSet(std::vector<std::uint64_t> &bits, std::uint32_t i)
{
    const std::size_t w = i >> 6;
    if (w >= bits.size())
        bits.resize(w + 1, 0);
    const std::uint64_t m = 1ull << (i & 63);
    const bool was = (bits[w] & m) != 0;
    bits[w] |= m;
    return was;
}

} // namespace

SocketTransport::SocketTransport(Config cfg) : cfg_(std::move(cfg))
{
    DPC_ASSERT(cfg_.num_shards >= 1, "need at least one shard");
    DPC_ASSERT(cfg_.shard_id < cfg_.num_shards,
               "shard id out of range");
    DPC_ASSERT(cfg_.num_shards <= 64,
               "piggybacked all-reduce masks are 64-bit");
    DPC_ASSERT(cfg_.retrans_ms > 0,
               "retrans_ms must be positive (the retransmit tick "
               "drives both recovery and peer liveness)");
    DPC_ASSERT(cfg_.datagram_budget >= kMinFrameSize,
               "datagram_budget ", cfg_.datagram_budget,
               " below the minimum useful frame size ",
               kMinFrameSize);
    const int type =
        cfg_.proto == Proto::Udp ? SOCK_DGRAM : SOCK_STREAM;
    sock_ = boundSocket(type, cfg_.bind_host, local_port_);
    if (cfg_.proto == Proto::Tcp)
        DPC_ASSERT(::listen(sock_,
                            static_cast<int>(cfg_.num_shards)) == 0,
                   "listen(): ", std::strerror(errno));
    peer_fd_.assign(cfg_.num_shards, -1);
    peer_port_.assign(cfg_.num_shards, 0);
    reasm_.resize(cfg_.num_shards);
    peer_alive_.assign(cfg_.num_shards, 1);
    peer_ticks_.assign(cfg_.num_shards, 0);
    blackhole_until_.assign(cfg_.num_shards, 0);

    buildCutLists();

    w_tx_ = std::size_t{cfg_.pipeline_depth} + 3;
    tx_ring_.resize(std::size_t{cfg_.num_shards} * w_tx_);
    w_rx_ = 2 * std::size_t{cfg_.pipeline_depth} + 4;
    rx_ring_.resize(w_rx_);

    tx_last_.assign(cut_.size(), 0);
    tx_has_.assign(cut_.size(), 0);
    rx_val_.assign(cut_.size(), 0);
    rx_has_.assign(cut_.size(), 0);
    cut_patch_slot_.resize(cut_.size());
    for (std::size_t ci = 0; ci < cut_.size(); ++ci)
        cut_patch_slot_[ci] = cut_[ci].own_u ? cut_[ci].v : cut_[ci].u;
    tx_.resize(cfg_.num_shards);

    dp_win_.resize(kDpWindow);
    all_mask_ = cfg_.num_shards == 64
                    ? ~0ull
                    : (1ull << cfg_.num_shards) - 1;

    if (cfg_.proto == Proto::Udp) {
        // The seq-0 fixed part (reports + worst-case sparse hot
        // bitmap) is never split; it must fit one datagram.
        std::size_t max_hot_words = 0;
        for (const auto &tn : tx_nodes_)
            max_hot_words =
                std::max(max_hot_words, (tn.size() + 63) / 64);
        DPC_ASSERT(kCutBatchV4Fixed + kMaxDpReports * 24 + 20 +
                           max_hot_words * 15 <
                       65000,
                   "per-pair boundary list too large for one seq-0 "
                   "datagram");
    }
}

SocketTransport::~SocketTransport()
{
    for (int fd : peer_fd_)
        if (fd >= 0)
            ::close(fd);
    if (sock_ >= 0)
        ::close(sock_);
}

void
SocketTransport::buildCutLists()
{
    pair_cut_.resize(cfg_.num_shards);
    cut_of_edge_.assign(cfg_.edges.size(), kNoCut);
    cut_mask_.assign(cfg_.edges.size(), 0);
    const std::uint32_t me = cfg_.shard_id;
    for (std::size_t id = 0; id < cfg_.edges.size(); ++id) {
        const auto &[u, v] = cfg_.edges[id];
        const std::uint32_t su = ownerOf(u);
        const std::uint32_t sv = ownerOf(v);
        if (su == sv || (su != me && sv != me))
            continue;
        CutEdge ce;
        ce.edge_id = static_cast<std::uint32_t>(id);
        ce.u = u;
        ce.v = v;
        ce.peer = su == me ? sv : su;
        ce.own_u = su == me;
        ce.pair_pos =
            static_cast<std::uint32_t>(pair_cut_[ce.peer].size());
        cut_of_edge_[id] = static_cast<std::uint32_t>(cut_.size());
        cut_mask_[id] = 1;
        pair_cut_[ce.peer].push_back(
            static_cast<std::uint32_t>(cut_.size()));
        cut_.push_back(ce);
    }

    // Boundary node lists for the wake channel: both endpoints
    // of a shard pair derive the same ascending-id lists
    // from the shared overlay, so bit positions agree with no
    // exchange.
    tx_nodes_.assign(cfg_.num_shards, {});
    rx_nodes_.assign(cfg_.num_shards, {});
    for (const CutEdge &ce : cut_) {
        tx_nodes_[ce.peer].push_back(ce.own_u ? ce.u : ce.v);
        rx_nodes_[ce.peer].push_back(ce.own_u ? ce.v : ce.u);
    }
    const auto uniq = [](std::vector<std::uint32_t> &v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    wake_base_.assign(cfg_.num_shards, 0);
    wake_nodes_.clear();
    for (std::uint32_t s = 0; s < cfg_.num_shards; ++s) {
        uniq(tx_nodes_[s]);
        uniq(rx_nodes_[s]);
        wake_base_[s] = wake_nodes_.size();
        wake_nodes_.insert(wake_nodes_.end(), rx_nodes_[s].begin(),
                           rx_nodes_[s].end());
    }
    // All-hot until told otherwise, like a fresh frontier.
    wake_hot_.assign(wake_nodes_.size(), 1);
    tx_hot_last_.resize(cfg_.num_shards);
    for (std::uint32_t s = 0; s < cfg_.num_shards; ++s)
        tx_hot_last_[s].assign((tx_nodes_[s].size() + 63) / 64,
                               ~0ull);
    for (CutEdge &ce : cut_) {
        const auto &tn = tx_nodes_[ce.peer];
        const auto &rn = rx_nodes_[ce.peer];
        ce.own_pos = static_cast<std::uint32_t>(
            std::lower_bound(tn.begin(), tn.end(),
                             ce.own_u ? ce.u : ce.v) -
            tn.begin());
        ce.peer_pos = static_cast<std::uint32_t>(
            std::lower_bound(rn.begin(), rn.end(),
                             ce.own_u ? ce.v : ce.u) -
            rn.begin());
    }
}

void
SocketTransport::connectPeers(const std::vector<std::uint16_t> &ports)
{
    DPC_ASSERT(ports.size() == cfg_.num_shards,
               "peer port table size mismatch");
    peer_port_ = ports;
    if (cfg_.proto == Proto::Udp)
        return;
    // Deterministic handshake order avoids accept/connect races:
    // shard i dials every lower id, then accepts every higher id.
    // The dialed side identifies itself with a one-byte shard id.
    for (std::uint32_t s = 0; s < cfg_.shard_id; ++s) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        DPC_ASSERT(fd >= 0, "socket(): ", std::strerror(errno));
        sockaddr_in addr = peerAddr(cfg_, s, ports[s]);
        // The peer may not have reached accept() yet; retry
        // briefly instead of failing the whole shard.
        const std::int64_t give_up = nowMs() + 10000;
        while (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)) != 0) {
            if (nowMs() > give_up)
                fatal("shard ", cfg_.shard_id,
                      " cannot reach shard ", s, " on port ",
                      ports[s], ": ", std::strerror(errno));
            ::usleep(2000);
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        const std::uint8_t myid =
            static_cast<std::uint8_t>(cfg_.shard_id);
        sendAll(fd, &myid, 1);
        peer_fd_[s] = fd;
    }
    for (std::uint32_t s = cfg_.shard_id + 1; s < cfg_.num_shards;
         ++s) {
        const int fd = ::accept(sock_, nullptr, nullptr);
        DPC_ASSERT(fd >= 0, "accept(): ", std::strerror(errno));
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        std::uint8_t who = 0;
        ssize_t k;
        while ((k = ::recv(fd, &who, 1, 0)) < 0 && errno == EINTR) {
        }
        DPC_ASSERT(k == 1, "peer handshake read failed");
        DPC_ASSERT(who > cfg_.shard_id && who < cfg_.num_shards,
                   "unexpected peer id ", int{who});
        peer_fd_[who] = fd;
    }
}

std::uint32_t
SocketTransport::ownerOf(std::uint32_t node) const
{
    DPC_ASSERT(node < cfg_.owner_of.size(),
               "node ", node, " outside the ownership map");
    return cfg_.owner_of[node];
}

SocketTransport::RxSlot &
SocketTransport::rxSlot(std::uint64_t round)
{
    RxSlot &s = rx_ring_[round % w_rx_];
    if (s.round == round)
        return s;
    DPC_ASSERT(s.round == kNoRound || s.round < rx_emitted_,
               "rx slot for round ", s.round,
               " evicted while unresolved (drift bound violated)");
    s.round = round;
    s.val.assign(cut_.size(), 0);
    s.st.assign(cut_.size(), 0);
    s.offered.clear();
    s.open = false;
    s.seq_seen.assign(cfg_.num_shards, {});
    s.decl.assign(cfg_.num_shards, 0);
    s.decl_seen.assign(cfg_.num_shards, 0);
    s.got.assign(cfg_.num_shards, 0);
    s.hot_mode.assign(cfg_.num_shards, kHotNone);
    s.hot_words.assign(cfg_.num_shards, {});
    return s;
}

void
SocketTransport::beginRound(std::uint64_t round, const PatchSink &sink)
{
    DPC_ASSERT(sink.rows != nullptr && sink.nrows > 0,
               "patch sink without snapshot rows");
    round_ = round;
    started_ = true;
    flushed_ = false;
    // The sink lasts one round: the caller's row addresses rotate
    // with its history ring.
    sink_rows_.assign(sink.rows, sink.rows + sink.nrows);
    for (std::uint32_t s = 0; s < cfg_.num_shards; ++s) {
        TxAccum &a = tx_[s];
        a.changed.clear();
        a.hot.assign((tx_nodes_[s].size() + 63) / 64, 0);
        a.offered = 0;
        a.suppressed = 0;
        TxRound &tr = tx_ring_[std::size_t{s} * w_tx_ +
                               round % w_tx_];
        tr.round = round;
        tr.datagrams.clear();
    }
    // Open the rx slot now so early peer batches and our sends
    // land in the same place.
    rxSlot(round);
}

void
SocketTransport::send(const EdgePair &pair)
{
    DPC_ASSERT(started_, "send() before beginRound()");
    DPC_ASSERT(pair.edge_id < cut_of_edge_.size() &&
                   cut_of_edge_[pair.edge_id] != kNoCut,
               "offered pair on edge ", pair.edge_id,
               " is not a cut edge of this shard");
    const std::uint32_t ci = cut_of_edge_[pair.edge_id];
    const CutEdge &ce = cut_[ci];

    RxSlot &slot = rxSlot(round_);
    slot.offered.push_back(ci);

    const std::uint64_t bits =
        bitsOf(ce.own_u ? pair.e_u : pair.e_v);
    TxAccum &a = tx_[ce.peer];
    ++a.offered;
    // The wake channel: fold the own endpoint's hot bit into the
    // per-peer boundary bitmap (shipped on seq 0).
    if (ce.own_u ? pair.hot_u : pair.hot_v)
        a.hot[ce.own_pos >> 6] |= 1ull << (ce.own_pos & 63);
    if (tx_has_[ci] != 0 && tx_last_[ci] == bits) {
        // Quiesced: ship NOTHING; the receiver holds the last
        // delivered value under the epoch-fenced contract.
        ++a.suppressed;
    } else {
        a.changed.emplace_back(
            ce.pair_pos, bits ^ (tx_has_[ci] != 0 ? tx_last_[ci] : 0));
        tx_last_[ci] = bits;
        tx_has_[ci] = 1;
    }
}

void
SocketTransport::transmitBatch(std::uint32_t s,
                               const CutBatchMsg &msg,
                               std::size_t halves)
{
    std::vector<std::uint8_t> &buf = tx_frame_;
    buf.clear();
    encodeCutBatch(msg, buf);
    ++stats_.frames_sent;
    stats_.bytes_sent += buf.size();
    ++stats_.edges_per_frame_hist[histBucket(halves)];
    if (cfg_.proto == Proto::Udp) {
        if (blackholed(s)) {
            // Fault injection: eat the first transmission but keep
            // the retained copy -- once the hole heals the normal
            // retransmit machinery re-delivers it bitwise intact.
            ++stats_.gaveup_frames;
        } else {
            sockaddr_in addr = peerAddr(cfg_, s, peer_port_[s]);
            const ssize_t k = ::sendto(
                sock_, buf.data(), buf.size(), 0,
                reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
            if (k < 0)
                warn("shard sendto: ", std::strerror(errno));
        }
        tx_ring_[std::size_t{s} * w_tx_ + round_ % w_tx_]
            .datagrams.emplace_back(buf.begin(), buf.end());
    } else {
        trySendStream(s, buf.data(), buf.size());
    }
}

void
SocketTransport::peerStreamDown(std::uint32_t s)
{
    if (peer_fd_[s] >= 0) {
        ::close(peer_fd_[s]);
        peer_fd_[s] = -1;
    }
    if (peer_alive_[s]) {
        peer_alive_[s] = 0;
        ++stats_.suspect_events;
        stats_.peer_suspected |= 1ull << s;
    }
    reasm_[s].clear();
}

bool
SocketTransport::trySendStream(std::uint32_t s,
                               const std::uint8_t *data,
                               std::size_t len)
{
    if (peer_fd_[s] < 0 || !peer_alive_[s]) {
        ++stats_.gaveup_frames;
        return false;
    }
    std::size_t off = 0;
    while (off < len) {
        const ssize_t k =
            ::send(peer_fd_[s], data + off, len - off,
#ifdef MSG_NOSIGNAL
                   MSG_NOSIGNAL
#else
                   0
#endif
            );
        if (k < 0) {
            if (errno == EINTR)
                continue;
            if (cfg_.tick) {
                warn("shard ", cfg_.shard_id, ": peer ", s,
                     " stream send failed (",
                     std::strerror(errno),
                     "); awaiting obituary");
                peerStreamDown(s);
                ++stats_.gaveup_frames;
                return false;
            }
            fatal("shard stream send failed: ",
                  std::strerror(errno));
        }
        off += static_cast<std::size_t>(k);
    }
    return true;
}

void
SocketTransport::ensureFlushed()
{
    if (flushed_ || !started_)
        return;
    flushed_ = true;
    RxSlot &slot = rxSlot(round_);
    slot.open = true;

    const std::size_t nrep = static_cast<std::size_t>(
        std::min<std::uint64_t>(kMaxDpReports, round_ + 1));
    const std::vector<DpReport> reports = selectDpReports(nrep);

    for (std::uint32_t s = 0; s < cfg_.num_shards; ++s)
        if (!pair_cut_[s].empty() && peer_alive_[s])
            flushPeer(s, reports);
    resolveRx();
}

void
SocketTransport::flushPeer(std::uint32_t s,
                           const std::vector<DpReport> &reports)
{
    TxAccum &a = tx_[s];
    stats_.edges_suppressed += a.suppressed;
    // The gap coding needs strictly ascending record positions,
    // whatever order the pairs were offered in.  The sort
    // is deterministic (positions are unique).
    std::sort(a.changed.begin(), a.changed.end());

    // Elect the hot bitmap shape and account wake notifications
    // (0 -> 1 transitions vs the previous round's sent bitmap).
    const std::size_t nb = tx_nodes_[s].size();
    std::size_t pop = 0;
    for (std::size_t w = 0; w < a.hot.size(); ++w) {
        pop += static_cast<std::size_t>(
            __builtin_popcountll(a.hot[w]));
        stats_.wake_messages += static_cast<std::uint64_t>(
            __builtin_popcountll(a.hot[w] & ~tx_hot_last_[s][w]));
    }
    std::uint8_t mode = kHotSparse;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> hot_words;
    if (pop == nb) {
        mode = kHotAll;
    } else if (pop == 0) {
        mode = kHotClear;
    } else {
        for (std::size_t w = 0; w < a.hot.size(); ++w)
            if (a.hot[w] != 0)
                hot_words.emplace_back(
                    static_cast<std::uint32_t>(w), a.hot[w]);
    }
    tx_hot_last_[s] = a.hot;

    std::size_t hot_bytes = 0;
    if (mode == kHotSparse) {
        hot_bytes += varintSize(hot_words.size());
        std::uint32_t hprev = 0;
        bool hfirst = true;
        for (const auto &[w, bits] : hot_words) {
            hot_bytes += varintSize(hfirst ? w : w - hprev - 1) +
                         varintSize(bits);
            hprev = w;
            hfirst = false;
        }
    }

    const std::uint32_t total =
        static_cast<std::uint32_t>(a.changed.size());
    std::size_t ci = 0;
    std::uint32_t seq = 0;
    do {
        CutBatchMsg m;
        m.sender = cfg_.shard_id;
        m.epoch = epoch_;
        m.round = round_;
        m.seq = seq;
        std::size_t base = kCutBatchV4Fixed + 5; // n_changed bound
        if (seq == 0) {
            m.reports = reports;
            m.total_changed = total;
            m.hot_mode = mode;
            m.hot_words = hot_words;
            base += reports.size() * 24 + varintSize(total) +
                    hot_bytes;
        }
        std::size_t take = 0;
        std::uint32_t prev = 0;
        bool first = true;
        while (ci + take < a.changed.size()) {
            const auto &[pos, xbits] = a.changed[ci + take];
            const std::size_t rec =
                varintSize(first ? pos : pos - prev - 1) +
                varintSize(xbits);
            if (base + rec > cfg_.datagram_budget &&
                !(seq > 0 && take == 0))
                break; // full (seq > 0 always makes progress)
            base += rec;
            prev = pos;
            first = false;
            ++take;
        }
        m.changed.assign(a.changed.begin() + static_cast<long>(ci),
                         a.changed.begin() +
                             static_cast<long>(ci + take));
        ci += take;
        if (seq == 0 && total == 0)
            ++stats_.suppressed_frames;
        else if (take > 0)
            ++stats_.delta_frames;
        transmitBatch(s, m, take + (seq == 0 ? a.suppressed : 0));
        ++seq;
    } while (ci < a.changed.size());
}

void
SocketTransport::resendRound(std::uint32_t s, std::uint64_t round)
{
    if (cfg_.proto != Proto::Udp || !peer_alive_[s])
        return;
    const TxRound &tr =
        tx_ring_[std::size_t{s} * w_tx_ + round % w_tx_];
    if (tr.round != round)
        return; // aged out of the ring
    if (blackholed(s)) {
        stats_.gaveup_frames += tr.datagrams.size();
        return;
    }
    for (const auto &dg : tr.datagrams) {
        sockaddr_in addr = peerAddr(cfg_, s, peer_port_[s]);
        (void)::sendto(sock_, dg.data(), dg.size(), 0,
                       reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
        ++stats_.retransmits;
        stats_.retrans_bytes += dg.size();
    }
}

void
SocketTransport::nudgePeer(std::uint32_t s, std::uint64_t from)
{
    if (replayed_this_poll_ || cfg_.proto != Proto::Udp)
        return;
    replayed_this_poll_ = true;
    const std::uint64_t lo =
        round_ + 1 >= w_tx_ ? round_ + 1 - w_tx_ : 0;
    for (std::uint64_t r = std::max(from, lo); r <= round_; ++r)
        resendRound(s, r);
}

void
SocketTransport::foldReport(const DpReport &rep)
{
    if (rep.round < dp_emitted_)
        return;
    DpEntry &e = dp_win_[rep.round % kDpWindow];
    if (e.round != rep.round) {
        if (e.round != kNoRound && e.round > rep.round)
            return; // slot already recycled for a newer round
        e.round = rep.round;
        e.mask = 0;
        e.max_dp = 0.0;
    }
    e.mask |= rep.shard_mask;
    e.max_dp = std::max(e.max_dp, rep.max_dp);
    for (;;) {
        DpEntry &h = dp_win_[dp_emitted_ % kDpWindow];
        if (h.round != kNoRound && h.round > dp_emitted_) {
            // The window outran this round before it resolved
            // (deep shard chains); skip it -- the all-reduce is
            // accounting, not a barrier.
            ++dp_emitted_;
            continue;
        }
        if (h.round != dp_emitted_ || h.mask != all_mask_)
            break;
        dp_ready_.emplace_back(dp_emitted_, h.max_dp);
        ++dp_emitted_;
    }
}

std::vector<DpReport>
SocketTransport::selectDpReports(std::size_t n) const
{
    std::vector<DpReport> out;
    out.reserve(n);
    const std::uint64_t hi =
        std::min<std::uint64_t>(round_, dp_emitted_ + kDpWindow - 1);
    for (std::uint64_t r = dp_emitted_;
         r <= hi && out.size() < n; ++r) {
        const DpEntry &e = dp_win_[r % kDpWindow];
        if (e.round == r)
            out.push_back(DpReport{r, e.mask, e.max_dp});
    }
    // Pad to exactly n so the seq-0 frame size is deterministic
    // (the fold is idempotent; repeats are harmless).
    while (out.size() < n)
        out.push_back(out.empty() ? DpReport{} : out.back());
    return out;
}

void
SocketTransport::noteRoundDone(std::uint64_t round,
                               double local_max_dp)
{
    foldReport(DpReport{round, 1ull << cfg_.shard_id,
                        local_max_dp});
}

bool
SocketTransport::pollGlobalMax(std::uint64_t &round,
                               double &global_max_dp)
{
    if (dp_head_ >= dp_ready_.size()) {
        dp_ready_.clear();
        dp_head_ = 0;
        return false;
    }
    round = dp_ready_[dp_head_].first;
    global_max_dp = dp_ready_[dp_head_].second;
    ++dp_head_;
    return true;
}

void
SocketTransport::fileBatch(const CutBatchMsg &msg)
{
    const std::uint32_t s = msg.sender;
    if (s >= cfg_.num_shards || s == cfg_.shard_id) {
        warn("shard ", cfg_.shard_id,
             " dropping batch with bad sender ", s);
        return;
    }
    if (msg.epoch != epoch_) {
        // Epoch fence: a datagram from before (or racing past) a
        // reconfiguration describes a round the rollback discarded;
        // filing it would corrupt the post-recovery replay cache.
        ++stats_.stale_epoch_frames;
        return;
    }
    // Any current-epoch traffic from s proves it alive: refund its
    // suspicion budget.
    peer_ticks_[s] = 0;
    if (msg.round < rx_emitted_) {
        // A replay of a fully resolved round: the peer is stuck
        // waiting on US -- replay our retained rounds to it.
        ++stats_.duplicates;
        nudgePeer(s, msg.round);
        return;
    }
    if (msg.round >= rx_emitted_ + w_rx_) {
        warn("shard ", cfg_.shard_id, " got batch for round ",
             msg.round, " while in round ", round_,
             " (emitted ", rx_emitted_, ")");
        return;
    }
    RxSlot &slot = rxSlot(msg.round);
    if (testAndSet(slot.seq_seen[s], msg.seq)) {
        ++stats_.duplicates;
        nudgePeer(s, msg.round);
        return;
    }

    for (const DpReport &rep : msg.reports)
        foldReport(rep);

    const std::vector<std::uint32_t> &pcut = pair_cut_[s];
    if (msg.seq == 0) {
        slot.decl[s] = msg.total_changed;
        slot.decl_seen[s] = 1;
        slot.hot_mode[s] = msg.hot_mode;
        slot.hot_words[s] = msg.hot_words;
    }
    for (const auto &[pos, xbits] : msg.changed) {
        DPC_ASSERT(pos < pcut.size(), "cut record index ", pos,
                   " outside the per-pair list");
        const std::uint32_t ci = pcut[pos];
        DPC_ASSERT(slot.st[ci] == 0,
                   "cut edge filed twice in one round");
        slot.val[ci] = xbits; // raw XOR; resolved at emit
        slot.st[ci] = 1;
        ++slot.got[s];
    }
}

bool
SocketTransport::awaited(std::uint32_t s) const
{
    return s != cfg_.shard_id && !pair_cut_[s].empty() &&
           ((peer_dead_mask_ >> s) & 1u) == 0;
}

bool
SocketTransport::peerDone(const RxSlot &slot, std::uint32_t s) const
{
    return slot.decl_seen[s] != 0 && slot.got[s] >= slot.decl[s];
}

void
SocketTransport::applyHotWords(
    std::uint32_t s, std::uint8_t mode,
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>
        &words)
{
    const std::size_t base = wake_base_[s];
    const std::size_t n = rx_nodes_[s].size();
    if (mode == kHotAll) {
        std::fill_n(wake_hot_.begin() + static_cast<long>(base), n,
                    std::uint8_t{1});
        return;
    }
    if (mode == kHotClear) {
        std::fill_n(wake_hot_.begin() + static_cast<long>(base), n,
                    std::uint8_t{0});
        return;
    }
    DPC_ASSERT(mode == kHotSparse,
               "emitting a round without a hot bitmap from peer ",
               s);
    std::fill_n(wake_hot_.begin() + static_cast<long>(base), n,
                std::uint8_t{0});
    for (const auto &[w, bits] : words) {
        std::uint64_t word = bits;
        while (word != 0) {
            const std::uint32_t bit = static_cast<std::uint32_t>(
                __builtin_ctzll(word));
            word &= word - 1;
            const std::size_t idx = std::size_t{w} * 64 + bit;
            DPC_ASSERT(idx < n,
                       "hot bit outside the boundary list of peer ",
                       s);
            wake_hot_[base + idx] = 1;
        }
    }
}

void
SocketTransport::resolveRx()
{
    for (;;) {
        if (rx_emitted_ > round_)
            return;
        RxSlot &slot = rx_ring_[rx_emitted_ % w_rx_];
        if (slot.round != rx_emitted_ || !slot.open)
            return;
        // Sender-driven completion: every cut peer's seq-0
        // declaration seen and all declared records filed.  Unfiled
        // offered positions are HELD values.  Only a peer CONFIRMED
        // dead by an epoch fence is excused -- a suspected peer
        // (stream down, obituary pending) still blocks, so the
        // caller parks in poll() where the control-plane tick can
        // abort the round.
        for (std::uint32_t s = 0; s < cfg_.num_shards; ++s)
            if (awaited(s) && !peerDone(slot, s))
                return;
        // Emit in offer (canonical) order: refresh the replay
        // cache, then write the peer-owned half of every offered
        // cut pair into the caller's snapshot row of that round.
        std::uint64_t age = round_ - slot.round;
        if (age >= sink_rows_.size())
            age = sink_rows_.size() - 1;
        double *const sink_row =
            sink_rows_[static_cast<std::size_t>(age)];
        for (const std::uint32_t ci : slot.offered) {
            if (slot.st[ci] != 0) {
                // Records are XOR against the peer's previous
                // transmission; both caches start empty together
                // (construction / epoch change), so the chain
                // stays in lockstep with no absolute/delta flag.
                rx_val_[ci] =
                    (rx_has_[ci] != 0 ? rx_val_[ci] : 0) ^ slot.val[ci];
                rx_has_[ci] = 1;
            } else {
                DPC_ASSERT(rx_has_[ci] != 0,
                           "held cut edge with no cached value");
            }
            sink_row[cut_patch_slot_[ci]] = doubleOf(rx_val_[ci]);
        }
        // The round's wake bitmaps land with its value patches
        // (strict round order), which is what keeps the sharded
        // participant gating equal to the single-process mask.
        for (std::uint32_t s = 0; s < cfg_.num_shards; ++s)
            if (awaited(s))
                applyHotWords(s, slot.hot_mode[s], slot.hot_words[s]);
        ++rx_emitted_;
    }
}

bool
SocketTransport::roundComplete() const
{
    if (!started_)
        return true;
    const std::uint64_t need =
        round_ + 1 > cfg_.pipeline_depth
            ? round_ + 1 - cfg_.pipeline_depth
            : 0;
    return rx_emitted_ >= need;
}

SocketTransport::Wake
SocketTransport::receiveSome(int timeout_ms, bool data_plane,
                             bool control)
{
    Wake w;
    std::vector<pollfd> fds;
    if (data_plane && cfg_.proto == Proto::Udp) {
        fds.push_back({sock_, POLLIN, 0});
    } else if (data_plane) {
        for (int fd : peer_fd_)
            if (fd >= 0)
                fds.push_back({fd, POLLIN, 0});
    }
    // The control link rides at the end of the wait set, after the
    // data fds the decode loops below walk.
    const std::size_t ndata = fds.size();
    if (control && cfg_.control_fd >= 0)
        fds.push_back({cfg_.control_fd, POLLIN, 0});
    if (fds.empty())
        return w;
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0) {
        if (errno == EINTR)
            return w;
        fatal("shard poll(): ", std::strerror(errno));
    }
    if (rc == 0)
        return w;
    w.control = fds.size() > ndata && fds[ndata].revents != 0;
    if (ndata == 0)
        return w;

    if (cfg_.proto == Proto::Udp) {
        std::uint8_t buf[65536];
        for (;;) {
            const ssize_t k =
                ::recv(sock_, buf, sizeof(buf), MSG_DONTWAIT);
            if (k < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)
                    break;
                fatal("shard recv(): ", std::strerror(errno));
            }
            stats_.bytes_received += static_cast<std::size_t>(k);
            std::size_t off = 0;
            while (off < static_cast<std::size_t>(k)) {
                Frame f;
                std::size_t used = 0;
                const DecodeStatus st = decodeFrame(
                    buf + off, static_cast<std::size_t>(k) - off, f,
                    used);
                if (st != DecodeStatus::Ok ||
                    f.type != FrameType::CutBatch) {
                    warn("shard ", cfg_.shard_id,
                         " dropping undecodable datagram tail");
                    break;
                }
                ++stats_.frames_received;
                fileBatch(f.cut_batch);
                w.data = true;
                off += used;
            }
        }
    } else {
        for (std::size_t x = 0; x < ndata; ++x) {
            const pollfd &p = fds[x];
            if ((p.revents & POLLIN) == 0)
                continue;
            std::uint32_t s = 0;
            while (s < cfg_.num_shards && peer_fd_[s] != p.fd)
                ++s;
            std::uint8_t buf[65536];
            const ssize_t k =
                ::recv(p.fd, buf, sizeof(buf), MSG_DONTWAIT);
            if (k < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)
                    continue;
                // A SIGKILLed peer resets the stream (RST) rather
                // than closing it: same suspected-death handling
                // as EOF under a control plane.
                if (!cfg_.tick)
                    fatal("shard recv(): ",
                          std::strerror(errno));
                warn("shard ", cfg_.shard_id, ": peer ", s,
                     " stream error (", std::strerror(errno),
                     "); awaiting obituary");
                peerStreamDown(s);
                continue;
            }
            if (k == 0) {
                // Stream EOF mid-run.  Under a control plane (tick
                // hook) this is a suspected death: stop talking to
                // the peer and let the broker obituary confirm.
                // Without one it is unrecoverable, as before.
                if (!cfg_.tick)
                    fatal("shard ", cfg_.shard_id, ": peer ", s,
                          " closed its stream mid-run");
                warn("shard ", cfg_.shard_id, ": peer ", s,
                     " closed its stream mid-run; awaiting "
                     "obituary");
                peerStreamDown(s);
                continue;
            }
            stats_.bytes_received += static_cast<std::size_t>(k);
            auto &rb = reasm_[s];
            rb.insert(rb.end(), buf, buf + k);
            std::size_t off = 0;
            for (;;) {
                Frame f;
                std::size_t used = 0;
                const DecodeStatus st = decodeFrame(
                    rb.data() + off, rb.size() - off, f, used);
                if (st == DecodeStatus::NeedMore)
                    break;
                if (st == DecodeStatus::Bad)
                    fatal("shard ", cfg_.shard_id,
                          ": corrupt stream from peer ", s);
                if (f.type != FrameType::CutBatch)
                    fatal("shard ", cfg_.shard_id,
                          ": unexpected frame type on data plane");
                ++stats_.frames_received;
                fileBatch(f.cut_batch);
                w.data = true;
                off += used;
            }
            if (off > 0)
                rb.erase(rb.begin(),
                         rb.begin() + static_cast<long>(off));
        }
    }
    return w;
}

void
SocketTransport::service()
{
    // The data plane only on UDP: the whole point is answering
    // retransmit nudges, which TCP never sends -- and a TCP peer
    // that finished its final round has legitimately closed its
    // stream, which receiveSome() would misread as a mid-run death.
    const bool data_plane = started_ && cfg_.proto == Proto::Udp;
    if (data_plane) {
        ensureFlushed();
        replayed_this_poll_ = false;
    }
    receiveSome(cfg_.retrans_ms, data_plane, true);
}

void
SocketTransport::fatalTimeout()
{
    // Name every peer the oldest unresolved round still waits on:
    // either its seq-0 declaration never arrived, or fewer records
    // than it declared have been filed.
    const RxSlot &slot = rx_ring_[rx_emitted_ % w_rx_];
    std::string owed;
    if (slot.round == rx_emitted_) {
        for (std::uint32_t s = 0; s < cfg_.num_shards; ++s) {
            if (!awaited(s) || peerDone(slot, s))
                continue;
            owed += owed.empty() ? " peer " : ", peer ";
            owed += std::to_string(s);
            owed += slot.decl_seen[s] == 0
                        ? " (no seq-0 seen)"
                        : " (got " + std::to_string(slot.got[s]) +
                              " of " + std::to_string(slot.decl[s]) +
                              " declared records)";
        }
    }
    fatal("shard ", cfg_.shard_id, " timed out in round ", round_,
          ": round ", rx_emitted_, " still owed by",
          owed.empty() ? " no peer (round not flushed)" : owed,
          " (peer dead?)");
}

void
SocketTransport::tryPoll()
{
    ensureFlushed();
    if (roundComplete())
        return;
    replayed_this_poll_ = false;
    receiveSome(0, true, false);
    resolveRx();
}

void
SocketTransport::tickRetransmit()
{
    // Which peers still owe halves of the oldest unresolved round?
    // (Suspicion tracks silence from peers we are WAITING ON, not
    // peers that merely have not acked -- there are no acks.)
    const RxSlot &slot = rx_ring_[rx_emitted_ % w_rx_];
    std::vector<std::uint8_t> owed(cfg_.num_shards, 0);
    if (slot.round == rx_emitted_)
        for (std::uint32_t s = 0; s < cfg_.num_shards; ++s)
            if (s != cfg_.shard_id && !pair_cut_[s].empty() &&
                !peerDone(slot, s))
                owed[s] = 1;
    for (std::uint32_t s = 0; s < cfg_.num_shards; ++s) {
        if (s == cfg_.shard_id || pair_cut_[s].empty() ||
            !peer_alive_[s])
            continue;
        if (!owed[s]) {
            peer_ticks_[s] = 0;
        } else {
            ++peer_ticks_[s];
            if (peer_ticks_[s] == cfg_.suspect_after) {
                ++stats_.suspect_events;
                if ((stats_.peer_suspected & (1ull << s)) == 0)
                    warn("shard ", cfg_.shard_id, " suspects peer ",
                         s, " (silent for ", peer_ticks_[s],
                         " retransmit ticks in round ", rx_emitted_,
                         ")");
                stats_.peer_suspected |= 1ull << s;
            }
        }
        if (peer_ticks_[s] >= cfg_.suspect_after) {
            // Retransmit budget exhausted: withhold blind timer
            // resends (each withheld datagram is a gaveup) until
            // the peer's own traffic refunds the budget.  The
            // dup-triggered nudgePeer path stays live, so a slow
            // peer can still unstick itself.
            const TxRound &tr =
                tx_ring_[std::size_t{s} * w_tx_ + round_ % w_tx_];
            if (tr.round == round_)
                stats_.gaveup_frames += tr.datagrams.size();
            continue;
        }
        resendRound(s, round_);
    }
}

void
SocketTransport::poll()
{
    ensureFlushed();
    resolveRx();
    const std::int64_t give_up = nowMs() + cfg_.round_timeout_ms;
    for (;;) {
        if (roundComplete() || abort_)
            return;
        replayed_this_poll_ = false;
        // The control link shares the wait (under a tick, which
        // consumes it), so a broker Quiesce aborts the round the
        // moment it lands rather than on the next timeout.
        const Wake w = receiveSome(cfg_.retrans_ms, true,
                                   static_cast<bool>(cfg_.tick));
        // The control-plane hook runs on EVERY wait iteration --
        // steady data-plane traffic must not starve heartbeats or
        // delay an epoch-change abort.
        if (cfg_.tick && cfg_.tick()) {
            abort_ = true;
            return;
        }
        if (!w.data) {
            // Only a wait that ran out is a fruitless tick; a
            // control frame waking it early resends nothing.
            if (!w.control)
                tickRetransmit();
            if (nowMs() > give_up)
                fatalTimeout();
        }
        resolveRx();
    }
}

void
SocketTransport::setBlackhole(std::uint32_t peer, int duration_ms)
{
    DPC_ASSERT(peer < cfg_.num_shards, "blackhole peer ", peer,
               " out of range");
    DPC_ASSERT(cfg_.proto == Proto::Udp,
               "blackhole injection is UDP-only (a TCP stream "
               "cannot lose bytes without dying)");
    blackhole_until_[peer] = nowMs() + duration_ms;
}

bool
SocketTransport::blackholed(std::uint32_t s) const
{
    return blackhole_until_[s] != 0 && nowMs() < blackhole_until_[s];
}

void
SocketTransport::epochChange(std::uint32_t epoch,
                             std::uint64_t dead_mask,
                             std::uint64_t resume_round)
{
    DPC_ASSERT(epoch > epoch_, "epoch must advance (", epoch_,
               " -> ", epoch, ")");
    epoch_ = epoch;
    abort_ = false;
    for (std::uint32_t s = 0; s < cfg_.num_shards; ++s) {
        if (((dead_mask >> s) & 1u) != 0) {
            DPC_ASSERT(s != cfg_.shard_id,
                       "obituary names the local shard");
            peer_alive_[s] = 0;
            peer_dead_mask_ |= 1ull << s;
            if (peer_fd_[s] >= 0) {
                ::close(peer_fd_[s]);
                peer_fd_[s] = -1;
            }
            reasm_[s].clear();
        }
        peer_ticks_[s] = 0;
    }
    // Abandon every retained datagram and half-packed batch: they
    // encode pre-rollback speculation from the old epoch.
    for (TxRound &tr : tx_ring_) {
        stats_.gaveup_frames += tr.datagrams.size();
        tr.round = kNoRound;
        tr.datagrams.clear();
    }
    for (TxAccum &a : tx_) {
        a.changed.clear();
        a.offered = 0;
        a.suppressed = 0;
        a.hot.clear();
    }
    for (RxSlot &s : rx_ring_) {
        s.round = kNoRound;
        s.val.clear();
        s.st.clear();
        s.offered.clear();
        s.open = false;
        s.seq_seen.clear();
        s.decl.clear();
        s.decl_seen.clear();
        s.got.clear();
        s.hot_mode.clear();
        s.hot_words.clear();
    }
    // Reset the suppression caches in BOTH directions: survivors
    // rolled back across rounds whose transmissions already
    // refreshed the caches, so the first post-recovery round must
    // ship every half explicitly or sender and receiver caches
    // could disagree.
    std::fill(tx_has_.begin(), tx_has_.end(), 0);
    std::fill(rx_has_.begin(), rx_has_.end(), 0);
    // The wake view and wake accounting baseline go back to
    // all-hot: the epoch fence invalidated every held verdict, and
    // the first post-recovery rounds are dense anyway.
    std::fill(wake_hot_.begin(), wake_hot_.end(), std::uint8_t{1});
    for (auto &words : tx_hot_last_)
        std::fill(words.begin(), words.end(), ~0ull);
    rx_emitted_ = resume_round;
    // The piggybacked all-reduce restarts at the resume round over
    // the survivor mask; unresolved pre-death rounds are abandoned
    // (accounting only, never a barrier).
    for (DpEntry &e : dp_win_)
        e = DpEntry{};
    dp_ready_.clear();
    dp_head_ = 0;
    dp_emitted_ = resume_round;
    all_mask_ = 0;
    for (std::uint32_t s = 0; s < cfg_.num_shards; ++s)
        if (s == cfg_.shard_id || peer_alive_[s])
            all_mask_ |= 1ull << s;
    round_ = resume_round;
    started_ = false;
    flushed_ = false;
}

} // namespace net
} // namespace dpc
