#include "cluster/shard.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <optional>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/wire.hh"
#include "util/logging.hh"

namespace dpc {
namespace cluster {

namespace {

using net::DecodeStatus;
using net::EpochPhase;
using net::Frame;
using net::FrameType;

/**
 * The recovery surgery every survivor and applyShardRecovery share:
 * enter `epoch`, fail the dead blocks' nodes in ONE canonical order
 * (ascending id over all dead shards -- they must match
 * bitwise), and label the surviving components.  Returns the
 * component count.
 */
std::size_t
failDeadBlocks(DibaAllocator &alloc, const ShardPlan &plan,
               std::uint64_t dead, std::uint32_t epoch,
               std::vector<std::uint32_t> &label)
{
    alloc.setRecoveryEpoch(epoch);
    std::vector<std::size_t> nodes;
    for (std::size_t i = 0; i < plan.owner_of.size(); ++i)
        if (((dead >> plan.owner_of[i]) & 1) && alloc.isActive(i))
            nodes.push_back(i);
    return alloc.failNodesQuiet(std::move(nodes), &label);
}

/** Shard heartbeat cadence on the broker link of a guarded run
 * (recover or a non-empty fault plan), in milliseconds. */
constexpr int kHeartbeatMs = 50;

sockaddr_in
loopbackAddr(std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return addr;
}

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-effort framed send; false when the peer is gone.  The
 * broker uses this everywhere -- a dead shard must produce an
 * obituary, not a broker crash. */
bool
trySendAll(int fd, const std::uint8_t *data, std::size_t len)
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
            return false;
        }
        off += static_cast<std::size_t>(k);
    }
    return true;
}

/** Shard-side framed send: the broker is the parent process; if it
 * is gone the shard has no one to report to (broker death is fatal
 * in v1). */
void
sendAll(int fd, const std::uint8_t *data, std::size_t len)
{
    if (!trySendAll(fd, data, len))
        fatal("broker link send failed: ", std::strerror(errno));
}

void
sendFrame(int fd, const Frame &f)
{
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(f, bytes);
    sendAll(fd, bytes.data(), bytes.size());
}

bool
trySendFrame(int fd, const Frame &f)
{
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(f, bytes);
    return trySendAll(fd, bytes.data(), bytes.size());
}

/** How readFrame() waits while the link holds no whole frame. */
enum class LinkWait
{
    /** Block until one arrives. */
    Block,
    /** Return false instead of waiting. */
    Drain,
};

/**
 * The one broker-link reader: decode the next frame out of the
 * per-connection reassembly buffer, reading more bytes as needed.
 * Drain never waits.  Block waits in a blocking recv -- or, given a
 * transport to service, inside its service(), which keeps the
 * shard's UDP data plane alive while waiting on the broker.  At the
 * round barrier a shard owes its peers nothing new, but a peer that
 * lost datagrams keeps retransmitting until a replay unsticks it,
 * and those nudges land on the DATA socket, not the broker link.
 * Blocking blind on the broker there deadlocks the pair: we never
 * see the nudge, the peer never finishes, the broker never releases
 * the barrier.  service() watches the broker link in the same wait
 * (SocketTransport::Config::control_fd), so a broker frame still
 * ends it at once.
 */
bool
readFrame(int fd, std::vector<std::uint8_t> &buf, LinkWait wait,
          net::SocketTransport *servicing, Frame &out)
{
    for (;;) {
        Frame f;
        std::size_t used = 0;
        const DecodeStatus st =
            net::decodeFrame(buf.data(), buf.size(), f, used);
        if (st == DecodeStatus::Ok) {
            buf.erase(buf.begin(),
                      buf.begin() + static_cast<long>(used));
            out = std::move(f);
            return true;
        }
        if (st == DecodeStatus::Bad)
            fatal("corrupt frame on broker link");
        const bool blocking =
            wait == LinkWait::Block && servicing == nullptr;
        if (wait == LinkWait::Block && servicing != nullptr)
            servicing->service();
        std::uint8_t chunk[16384];
        const ssize_t k = ::recv(fd, chunk, sizeof(chunk),
                                 blocking ? 0 : MSG_DONTWAIT);
        if (k < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                if (wait == LinkWait::Drain)
                    return false;
                continue;
            }
            fatal("broker link recv failed: ",
                  std::strerror(errno));
        }
        if (k == 0)
            fatal("broker link closed (broker death is fatal in "
                  "v1)");
        buf.insert(buf.end(), chunk, chunk + k);
    }
}

/** Blocking read of the next broker frame. */
Frame
recvFrame(int fd, std::vector<std::uint8_t> &buf,
          net::SocketTransport *servicing = nullptr)
{
    Frame f;
    readFrame(fd, buf, LinkWait::Block, servicing, f);
    return f;
}

int
dialBroker(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    DPC_ASSERT(fd >= 0, "socket(): ", std::strerror(errno));
    sockaddr_in addr = loopbackAddr(port);
    // The broker listens before it forks, so the first connect
    // lands in its backlog.  An interrupted connect keeps going in
    // the kernel: retrying reports EALREADY until it lands, then
    // EISCONN.
    while (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)) != 0) {
        if (errno == EISCONN)
            break;
        if (errno != EINTR && errno != EALREADY)
            fatal("shard cannot reach broker on port ", port, ": ",
                  std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

/** Shard child body; never returns to the caller's control flow
 * (the child _exit()s right after). */
void
shardMain(std::uint32_t shard_id, const ShardPlan &plan,
          const AllocationProblem &prob, const Graph &topo,
          const DibaAllocator::Config &cfg,
          const ShardRunOptions &opt, std::uint16_t broker_port)
{
    const std::vector<fault::ShardFaultEvent> my_faults =
        opt.faults.eventsFor(shard_id);
    // Handshake faults fire before any socket exists.
    for (const fault::ShardFaultEvent &ev : my_faults)
        if (ev.kind == fault::ShardFaultKind::HandshakeDelay)
            ::usleep(static_cast<useconds_t>(ev.duration_ms) *
                     1000);

    DibaAllocator alloc(topo, cfg);
    alloc.reset(prob);
    if (opt.recover) {
        alloc.setShardCheckpointDepth(kShardCheckpointDepth);
        // Baseline checkpoint: a death during round 0 rolls the
        // survivors back to the reset state.
        alloc.saveShardCheckpoint();
    }

    // Guarded control plane: heartbeats + broker-driven recovery.
    // Armed only when the run can actually need it, so the
    // no-fault path stays byte-for-byte the PR 8 behavior.
    const bool guarded = opt.recover || !opt.faults.empty();

    /** Control-plane state shared between the transport tick hook
     * and the round loop. */
    struct Ctl
    {
        int bfd = -1;
        std::vector<std::uint8_t> bbuf;
        /** A broker Quiesce is waiting to be handled. */
        bool quiesce_pending = false;
        net::EpochChangeMsg quiesce;
        std::int64_t last_hb = 0;
    } ctl;
    net::SocketTransport *sockp = nullptr;

    // Non-blocking drain of the broker link: absorb whatever
    // frames have arrived, remembering the newest Quiesce.  Runs
    // from the transport tick (mid-poll) and from the round top.
    auto drainBroker = [&]() {
        if (ctl.bfd < 0)
            return;
        Frame f;
        while (readFrame(ctl.bfd, ctl.bbuf, LinkWait::Drain, nullptr,
                         f)) {
            if (f.type == FrameType::EpochChange &&
                f.epoch_change.phase == EpochPhase::Quiesce &&
                (!ctl.quiesce_pending ||
                 f.epoch_change.epoch > ctl.quiesce.epoch) &&
                (sockp == nullptr ||
                 f.epoch_change.epoch > sockp->epoch())) {
                ctl.quiesce_pending = true;
                ctl.quiesce = f.epoch_change;
            }
        }
    };

    // The transport tick: rate-limited heartbeat + broker drain.
    // Returning true aborts the open round (poll() unblocks with
    // aborted() set and the round loop runs the recovery
    // handshake).
    auto tickNow = [&]() -> bool {
        if (ctl.bfd >= 0) {
            const std::int64_t now = nowMs();
            if (now - ctl.last_hb >= kHeartbeatMs) {
                Frame hb;
                hb.type = FrameType::Heartbeat;
                hb.heartbeat.shard_id = shard_id;
                hb.heartbeat.epoch =
                    sockp != nullptr ? sockp->epoch() : 0;
                hb.heartbeat.round = alloc.transportRound();
                sendFrame(ctl.bfd, hb);
                ctl.last_hb = now;
            }
        }
        drainBroker();
        return ctl.quiesce_pending;
    };

    net::SocketTransport::Config tc;
    tc.shard_id = shard_id;
    tc.num_shards = plan.num_shards;
    tc.owner_of = plan.owner_of;
    tc.proto = opt.proto;
    tc.retrans_ms = opt.retrans_ms;
    tc.datagram_budget = opt.datagram_budget;
    // The broker link is dialed before the transport exists so its
    // blocking waits can watch it: a Quiesce or the final Bye then
    // ends a wait the moment it lands instead of up to one
    // retransmit tick later.
    ctl.bfd = dialBroker(broker_port);
    tc.control_fd = ctl.bfd;
    if (guarded)
        tc.tick = tickNow;
    // The canonical edge list both sides of every shard pair
    // derive their cut-batch record indices from.
    tc.edges = alloc.overlayEdges();
    net::SocketTransport sock(tc);
    sockp = &sock;
    // The routed round's one-time setup (interior / boundary
    // split, cut ids) overlaps the handshake instead of landing on
    // round 0's clock.
    alloc.prepareShardRounds(sock, plan.block_begin[shard_id],
                             plan.block_end[shard_id]);
    {
        Frame hello;
        hello.type = FrameType::Hello;
        hello.hello.shard_id = shard_id;
        hello.hello.version = net::kWireVersion;
        hello.hello.udp_port = sock.localPort();
        hello.hello.tcp_port = sock.localPort();
        sendFrame(ctl.bfd, hello);
    }
    for (const fault::ShardFaultEvent &ev : my_faults)
        if (ev.kind == fault::ShardFaultKind::ExitAfterHello)
            ::_exit(0); // death between Hello and Welcome
    const Frame welcome = recvFrame(ctl.bfd, ctl.bbuf);
    DPC_ASSERT(welcome.type == FrameType::Welcome,
               "expected Welcome from broker");
    DPC_ASSERT(welcome.welcome.num_shards == plan.num_shards,
               "broker shard count mismatch");
    sock.connectPeers(
        opt.proto == net::SocketTransport::Proto::Udp
            ? welcome.welcome.udp_ports
            : welcome.welcome.tcp_ports);

    // Optional fault model: every shard holds a SAME-SEED replica
    // of the channel and the round queries it on every live pair
    // of the full overlay in canonical order, so the fates agree
    // everywhere with zero coordination -- and equal the
    // single-process run's.
    std::optional<LossyChannel> lossy;
    if (opt.lossy)
        lossy.emplace(opt.loss, opt.loss_seed);

    const std::size_t begin = plan.block_begin[shard_id];
    const std::size_t end = plan.block_end[shard_id];
    std::size_t r = 0;
    double last_moved = 0.0;
    double loop_s = 0.0;
    std::vector<bool> fired(my_faults.size(), false);

    // Self-inject the round-triggered faults scheduled for this
    // shard.  Each event fires once: recovery can re-run a round.
    auto applyFaults = [&](std::uint64_t round) {
        for (std::size_t i = 0; i < my_faults.size(); ++i) {
            if (fired[i] || my_faults[i].round != round)
                continue;
            switch (my_faults[i].kind) {
            case fault::ShardFaultKind::Kill:
                fired[i] = true;
                ::raise(SIGKILL);
                ::_exit(9); // not reached
            case fault::ShardFaultKind::Stall:
                // The broker observes the stop via waitpid and
                // owns the matching SIGCONT.
                fired[i] = true;
                ::raise(SIGSTOP);
                break;
            case fault::ShardFaultKind::Blackhole:
                fired[i] = true;
                sock.setBlackhole(my_faults[i].peer,
                                  my_faults[i].duration_ms);
                break;
            default:
                fired[i] = true; // handshake faults fired earlier
                break;
            }
        }
    };

    /**
     * The shard half of the three-phase recovery handshake.  `ec`
     * is the broker's Quiesce; on return the allocator and the
     * transport are in the new epoch and `r` is the resume round.
     * A newer Quiesce arriving mid-handshake (another death while
     * recovering) restarts the exchange.
     */
    auto doRecovery = [&](net::EpochChangeMsg ec) {
        DPC_ASSERT(opt.recover,
                   "broker sent EpochChange on a non-recovering "
                   "run");
        for (;;) {
            const std::uint32_t ep = ec.epoch;
            { // Ack 1: how far this shard actually got.
                Frame a;
                a.type = FrameType::EpochAck;
                a.epoch_ack.shard_id = shard_id;
                a.epoch_ack.epoch = ep;
                a.epoch_ack.phase = EpochPhase::Quiesce;
                a.epoch_ack.last_completed = r;
                sendFrame(ctl.bfd, a);
            }
            Frame f = recvFrame(ctl.bfd, ctl.bbuf);
            if (f.type == FrameType::EpochChange &&
                f.epoch_change.phase == EpochPhase::Quiesce &&
                f.epoch_change.epoch > ep) {
                ec = f.epoch_change; // another death: restart
                continue;
            }
            DPC_ASSERT(f.type == FrameType::EpochChange &&
                           f.epoch_change.phase ==
                               EpochPhase::Rollback &&
                           f.epoch_change.epoch == ep,
                       "shard ", shard_id,
                       ": unexpected frame in recovery");
            const std::uint64_t rec = f.epoch_change.resume_round;
            const std::uint64_t dead = f.epoch_change.dead_mask;
            DPC_ASSERT(alloc.rollbackToShardCheckpoint(rec),
                       "shard ", shard_id,
                       " cannot roll back to round ", rec,
                       " (checkpoint ring too shallow?)");
            std::vector<std::uint32_t> label;
            const std::size_t k =
                failDeadBlocks(alloc, plan, dead, ep, label);
            { // Ack 2: owned held-budget partials.
                Frame a;
                a.type = FrameType::EpochAck;
                a.epoch_ack.shard_id = shard_id;
                a.epoch_ack.epoch = ep;
                a.epoch_ack.phase = EpochPhase::Rollback;
                a.epoch_ack.last_completed = rec;
                alloc.heldPartials(label, k, plan.owner_of.data(),
                                   shard_id, a.epoch_ack.sum_p,
                                   a.epoch_ack.sum_e);
                sendFrame(ctl.bfd, a);
            }
            Frame f2 = recvFrame(ctl.bfd, ctl.bbuf);
            if (f2.type == FrameType::EpochChange &&
                f2.epoch_change.phase == EpochPhase::Quiesce &&
                f2.epoch_change.epoch > ep) {
                ec = f2.epoch_change; // another death: restart
                continue;
            }
            DPC_ASSERT(f2.type == FrameType::EpochChange &&
                           f2.epoch_change.phase ==
                               EpochPhase::Resume &&
                           f2.epoch_change.epoch == ep,
                       "shard ", shard_id,
                       ": unexpected frame awaiting Resume");
            DPC_ASSERT(f2.epoch_change.held.size() == k,
                       "broker held-budget fold disagrees on "
                       "component count");
            alloc.refederateBudgetWithHeld(label, k,
                                           f2.epoch_change.held);
            // Re-baseline: a LATER rollback to this round must
            // restore the post-surgery state, not the old epoch's.
            alloc.saveShardCheckpoint();
            sock.epochChange(ep, dead, rec);
            ctl.quiesce_pending = false;
            r = static_cast<std::size_t>(rec);
            return;
        }
    };

    // The first heartbeat (and the broker link's first send) goes
    // out here rather than on round 0's clock; a Quiesce it drains
    // is handled at the top of the loop.
    if (guarded)
        tickNow();
    bool released = false;
    while (!released) {
        const auto loop0 = std::chrono::steady_clock::now();
        while (r < opt.rounds) {
            if (guarded) {
                // Heartbeat + broker drain even when the data
                // plane never blocks (poll's tick only runs while
                // waiting).
                tickNow();
                if (ctl.quiesce_pending) {
                    doRecovery(ctl.quiesce);
                    continue;
                }
                applyFaults(r);
            }
            // Scheduled warm-started budget steps: every shard
            // applies the same step at the same round boundary.
            // The quadratic re-seed is per-node static arithmetic,
            // so the shards land on bitwise-identical state with
            // zero exchange.  Unconditional on re-reaching the
            // round after a rollback: the checkpoint restored the
            // pre-step budget along with the state it shifted.
            for (const ShardRunOptions::BudgetStep &bs :
                 opt.budget_steps)
                if (bs.round == r)
                    alloc.warmStart(alloc.result(), bs.delta);
            const double moved =
                alloc.iterateShard(sock, begin, end,
                                   lossy ? &*lossy : nullptr);
            if (sock.aborted()) {
                DPC_ASSERT(ctl.quiesce_pending,
                           "round aborted without a pending "
                           "Quiesce");
                doRecovery(ctl.quiesce);
                continue;
            }
            if (opt.recover)
                alloc.saveShardCheckpoint();
            last_moved = moved;
            // Feed the piggybacked all-reduce (the report rides on
            // the next round's batches) and fold whatever rounds
            // resolved so far into the convergence accounting --
            // the same global max single-process noteRound sees,
            // delivered a few rounds late, which that bookkeeping
            // tolerates by construction.  The epoch fence drops a
            // resolved value that raced across a recovery.
            sock.noteRoundDone(r, moved);
            std::uint64_t gr = 0;
            double gm = 0.0;
            while (sock.pollGlobalMax(gr, gm))
                alloc.noteExternalRound(sock.epoch(), gm);
            ++r;
        }
        loop_s += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - loop0)
                      .count();

        Frame result;
        result.type = FrameType::Result;
        net::ResultMsg &m = result.result;
        m.shard_id = shard_id;
        m.epoch = sock.epoch();
        const net::SocketTransport::Stats &st = sock.stats();
        m.bytes_sent = st.bytes_sent;
        m.frames_sent = st.frames_sent;
        m.retransmits = st.retransmits;
        m.retrans_bytes = st.retrans_bytes;
        m.bytes_received = st.bytes_received;
        m.frames_received = st.frames_received;
        m.duplicates = st.duplicates;
        m.edges_suppressed = st.edges_suppressed;
        m.suppressed_frames = st.suppressed_frames;
        m.delta_frames = st.delta_frames;
        m.wake_messages = st.wake_messages;
        m.stale_epoch_frames = st.stale_epoch_frames;
        m.gaveup_frames = st.gaveup_frames;
        m.suspect_events = st.suspect_events;
        m.peer_suspected = st.peer_suspected;
        m.edges_per_frame_hist = st.edges_per_frame_hist;
        // The broker maxes the locals into the exact global final
        // value (the tail of the piggybacked all-reduce may still
        // be unresolved here, which is fine -- it is accounting,
        // not a barrier).
        m.final_local_max_dp = last_moved;
        const DibaAllocator::TransportPhaseTotals &ph =
            alloc.transportPhases();
        m.phase_send_s = ph.send_s;
        m.phase_interior_s = ph.interior_s;
        m.phase_drain_s = ph.drain_s;
        m.phase_boundary_s = ph.boundary_s;
        m.round_loop_s = loop_s;
        const std::vector<double> &p = alloc.power();
        const std::vector<double> &e = alloc.estimates();
        for (std::size_t i = 0; i < plan.owner_of.size(); ++i) {
            if (plan.owner_of[i] != shard_id ||
                !alloc.isActive(i))
                continue;
            m.node_ids.push_back(static_cast<std::uint32_t>(i));
            m.power.push_back(p[i]);
            m.estimate.push_back(e[i]);
        }
        sendFrame(ctl.bfd, result);

        // Stay on the data plane until every shard has reported: a
        // peer still mid-round may need our retained batches
        // replayed, and going deaf here would wedge it (see
        // readFrame).  The broker's Bye (RoundGo, stop=1)
        // only comes once all Results are in -- unless a peer dies
        // first, in which case an EpochChange pulls this shard
        // back into the round loop.
        for (;;) {
            const Frame f = recvFrame(ctl.bfd, ctl.bbuf, &sock);
            if (f.type == FrameType::RoundGo &&
                f.round_go.stop != 0) {
                released = true;
                break;
            }
            if (f.type == FrameType::EpochChange &&
                f.epoch_change.phase == EpochPhase::Quiesce &&
                f.epoch_change.epoch > sock.epoch()) {
                doRecovery(f.epoch_change);
                break; // re-enter the round loop at the resume round
            }
            // Stale recovery frames (raced with our Result): skip.
        }
    }
    ::close(ctl.bfd);
}

/** A pidfd for child `pid` (readable once it exits), or -1 where
 * the kernel has none. */
int
openPidfd(pid_t pid)
{
#ifdef SYS_pidfd_open
    return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
    (void)pid;
    return -1;
#endif
}

/**
 * Wait until the child behind `pidfd` exits, for at most
 * `timeout_ms` -- and at most 50 ms, because a pidfd does not wake
 * on a stop, which the caller's waitpid(WUNTRACED) must still see.
 * Without a pidfd, nap 2 ms.
 */
void
awaitExit(int pidfd, std::int64_t timeout_ms)
{
    if (pidfd < 0) {
        ::usleep(2000);
        return;
    }
    pollfd p{pidfd, POLLIN, 0};
    ::poll(&p, 1,
           static_cast<int>(std::clamp<std::int64_t>(timeout_ms, 0,
                                                     50)));
}

/** Human-readable waitpid status. */
std::string
statusStr(int status)
{
    if (status < 0)
        return "not reaped";
    if (WIFEXITED(status))
        return "exit " + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "signal " + std::to_string(WTERMSIG(status));
    return "status " + std::to_string(status);
}

} // namespace

ShardPlan
makeShardPlan(const Graph &topo, std::uint32_t num_shards)
{
    DPC_ASSERT(num_shards >= 1, "need at least one shard");
    const std::size_t n = topo.numVertices();
    DPC_ASSERT(num_shards <= n, "more shards than nodes");

    ShardPlan plan;
    plan.num_shards = num_shards;
    plan.block_begin.resize(num_shards);
    plan.block_end.resize(num_shards);
    plan.owner_of.resize(n);
    for (std::uint32_t s = 0; s < num_shards; ++s) {
        plan.block_begin[s] = n * s / num_shards;
        plan.block_end[s] = n * (s + 1) / num_shards;
        std::fill(plan.owner_of.begin() + plan.block_begin[s],
                  plan.owner_of.begin() + plan.block_end[s], s);
    }
    // An edge is cut when its endpoints live in different blocks.
    plan.total_edges = topo.numEdges();
    for (std::size_t v = 0; v < n; ++v)
        for (const std::uint32_t w : topo.neighbors(v))
            if (v < w && plan.owner_of[v] != plan.owner_of[w])
                ++plan.cut_edges;
    return plan;
}

ShardPlan
makeShardPlan(const DibaAllocator &alloc, std::uint32_t num_shards)
{
    return makeShardPlan(alloc.topology(), num_shards);
}

void
applyShardRecovery(DibaAllocator &alloc, const ShardPlan &plan,
                   std::uint64_t dead_mask, std::uint32_t epoch)
{
    std::vector<std::uint32_t> label;
    const std::size_t k =
        failDeadBlocks(alloc, plan, dead_mask, epoch, label);
    std::vector<std::vector<double>> sp(plan.num_shards),
        se(plan.num_shards);
    for (std::uint32_t s = 0; s < plan.num_shards; ++s)
        if (!((dead_mask >> s) & 1))
            alloc.heldPartials(label, k, plan.owner_of.data(), s,
                               sp[s], se[s]);
    alloc.refederateBudgetWithHeld(label, k,
                                   foldHeldPartials(sp, se));
}

ShardRunResult
runShardedDiba(const AllocationProblem &prob, const Graph &topo,
               const DibaAllocator::Config &cfg,
               const ShardRunOptions &opt)
{
    DPC_ASSERT(cfg.num_threads == 0,
               "sharded runs fork: Config::num_threads must be 0");
    DPC_ASSERT(opt.num_shards >= 1, "need at least one shard");
    DPC_ASSERT(!(opt.recover && opt.lossy),
               "recover requires !lossy: a rollback does not "
               "rewind the loss channel's draws");
    DPC_ASSERT(opt.num_shards <= 64,
               "dead_mask is 64 bits: at most 64 shards");

    const bool guarded = opt.recover || !opt.faults.empty();

    // The plan is deterministic in the topology alone.
    ShardPlan plan = makeShardPlan(topo, opt.num_shards);

    ShardRunResult out;
    out.plan = plan;
    out.rounds_run = opt.rounds;
    const std::size_t n = plan.owner_of.size();
    out.power.assign(n, 0.0);
    out.estimates.assign(n, 0.0);
    out.shard_status.assign(opt.num_shards, -1);

    // Broker listener, bound before the fork so no shard can race
    // it.
    int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    DPC_ASSERT(lfd >= 0, "socket(): ", std::strerror(errno));
    const int one = 1;
    ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = loopbackAddr(0);
    DPC_ASSERT(::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0,
               "bind(): ", std::strerror(errno));
    socklen_t alen = sizeof(addr);
    DPC_ASSERT(::getsockname(lfd,
                             reinterpret_cast<sockaddr *>(&addr),
                             &alen) == 0,
               "getsockname(): ", std::strerror(errno));
    const std::uint16_t broker_port = ntohs(addr.sin_port);
    DPC_ASSERT(::listen(lfd, static_cast<int>(opt.num_shards)) == 0,
               "listen(): ", std::strerror(errno));

    /** Broker-side per-shard state. */
    struct Sh
    {
        pid_t pid = -1;
        int fd = -1;
        std::vector<std::uint8_t> buf;
        bool hello = false;
        std::uint16_t udp_port = 0, tcp_port = 0;
        bool alive = true;  ///< process believed alive
        bool reaped = false;
        int status = -1;    ///< raw waitpid status once reaped
        bool stopped = false;
        std::int64_t cont_at = -1; ///< scheduled SIGCONT (ms)
        bool hung_killed = false;  ///< we SIGKILLed it past deadline
        std::int64_t last_hb = 0;
        bool has_result = false; ///< current-epoch Result stored
        net::ResultMsg result;
        // Latest EpochAck:
        int ack_phase = -1;
        std::uint32_t ack_epoch = 0;
        std::uint64_t last_completed = 0;
        std::vector<double> sum_p, sum_e;
    };
    std::vector<Sh> sh(opt.num_shards);

    for (std::uint32_t s = 0; s < opt.num_shards; ++s) {
        const pid_t pid = ::fork();
        DPC_ASSERT(pid >= 0, "fork(): ", std::strerror(errno));
        if (pid == 0) {
            ::close(lfd);
            shardMain(s, plan, prob, topo, cfg, opt, broker_port);
            // Skip atexit/static destructors: the child shares the
            // parent's heap image and must not tear it down.
            ::_exit(0);
        }
        sh[s].pid = pid;
    }

    // ---- Broker event loop -------------------------------------
    //
    // One poll-driven pump services every shard link, reaps child
    // state transitions (exit / SIGSTOP / SIGCONT) without ever
    // blocking in waitpid, schedules the SIGCONT half of planned
    // stalls, and -- on guarded runs -- SIGKILLs shards whose
    // heartbeats go stale past the deadline.  A confirmed death
    // (reaped or link EOF) either fails the run cleanly
    // (recover = false) or triggers the three-phase epoch-fenced
    // recovery (recover = true).  The broker never hangs and never
    // leaks children: every exit path runs the bounded reap below.

    std::uint32_t cur_epoch = 0;
    std::uint64_t dead_mask = 0;
    bool death_pending = false;
    std::string death_desc;

    auto markDead = [&](std::uint32_t s, const std::string &how) {
        if (sh[s].fd >= 0) {
            ::close(sh[s].fd);
            sh[s].fd = -1;
        }
        if (!sh[s].alive)
            return;
        sh[s].alive = false;
        if (!((dead_mask >> s) & 1)) {
            dead_mask |= 1ull << s;
            death_pending = true;
            // A liveness SIGKILL is often confirmed by the link
            // EOF before waitpid files the status: keep the hung
            // label either way (hung-vs-slow is part of the
            // report, not a race).
            const std::string what =
                sh[s].hung_killed &&
                        how.find("hung") == std::string::npos
                    ? "hung past deadline (killed)"
                    : how;
            death_desc = "shard " + std::to_string(s) + " " + what;
            warn("broker: shard ", s, " ", what);
        }
    };

    auto reapTick = [&]() {
        for (std::uint32_t s = 0; s < opt.num_shards; ++s) {
            if (sh[s].pid <= 0 || sh[s].reaped)
                continue;
            int st = 0;
            const pid_t rc = ::waitpid(
                sh[s].pid, &st, WNOHANG | WUNTRACED | WCONTINUED);
            if (rc != sh[s].pid)
                continue;
            if (WIFSTOPPED(st)) {
                sh[s].stopped = true;
                const int d = opt.faults.stallDurationFor(s);
                sh[s].cont_at = nowMs() + (d > 0 ? d : 0);
            } else if (WIFCONTINUED(st)) {
                sh[s].stopped = false;
            } else {
                sh[s].reaped = true;
                sh[s].status = st;
                markDead(s, sh[s].hung_killed
                                ? "hung past deadline (killed, " +
                                      statusStr(st) + ")"
                                : "died (" + statusStr(st) + ")");
            }
        }
    };

    auto contTick = [&]() {
        for (std::uint32_t s = 0; s < opt.num_shards; ++s) {
            if (!sh[s].stopped || sh[s].cont_at < 0 ||
                nowMs() < sh[s].cont_at)
                continue;
            ::kill(sh[s].pid, SIGCONT);
            sh[s].stopped = false;
            sh[s].cont_at = -1;
            sh[s].last_hb = nowMs(); // grace after the nap
        }
    };

    auto livenessTick = [&]() {
        if (!guarded)
            return;
        for (std::uint32_t s = 0; s < opt.num_shards; ++s) {
            if (!sh[s].alive || sh[s].hung_killed ||
                sh[s].has_result || !sh[s].hello)
                continue;
            if (nowMs() - sh[s].last_hb <= opt.deadline_ms)
                continue;
            // Silent past the deadline: a stall whose scheduled
            // SIGCONT would land after the deadline counts as
            // hung too -- kill it and let the reap confirm.
            warn("broker: shard ", s, " silent for over ",
                 opt.deadline_ms, " ms; killing it");
            sh[s].hung_killed = true;
            sh[s].cont_at = -1;
            ::kill(sh[s].pid, SIGKILL);
        }
    };

    auto handleFrame = [&](std::uint32_t s, const Frame &f) {
        sh[s].last_hb = nowMs();
        switch (f.type) {
        case FrameType::Heartbeat:
            break; // the timestamp refresh is the payload
        case FrameType::Result:
            if (f.result.epoch == cur_epoch) {
                sh[s].result = f.result;
                sh[s].has_result = true;
            } // stale-epoch Result: the shard re-runs and resends
            break;
        case FrameType::EpochAck:
            if (f.epoch_ack.epoch == cur_epoch) {
                sh[s].ack_epoch = f.epoch_ack.epoch;
                sh[s].ack_phase =
                    static_cast<int>(f.epoch_ack.phase);
                sh[s].last_completed = f.epoch_ack.last_completed;
                sh[s].sum_p = f.epoch_ack.sum_p;
                sh[s].sum_e = f.epoch_ack.sum_e;
            }
            break;
        default:
            warn("broker: unexpected frame type ",
                 static_cast<int>(f.type), " from shard ", s);
            break;
        }
    };

    auto pumpOnce = [&](int timeout_ms) {
        std::vector<pollfd> pfds;
        std::vector<std::uint32_t> idx;
        for (std::uint32_t s = 0; s < opt.num_shards; ++s) {
            if (sh[s].fd < 0)
                continue;
            pfds.push_back({sh[s].fd, POLLIN, 0});
            idx.push_back(s);
        }
        int rc = 0;
        if (pfds.empty())
            ::usleep(static_cast<useconds_t>(timeout_ms) * 1000);
        else
            rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
        if (rc > 0) {
            for (std::size_t x = 0; x < pfds.size(); ++x) {
                if (!(pfds[x].revents &
                      (POLLIN | POLLHUP | POLLERR)))
                    continue;
                const std::uint32_t s = idx[x];
                std::uint8_t chunk[16384];
                const ssize_t k =
                    ::recv(sh[s].fd, chunk, sizeof(chunk), 0);
                if (k < 0) {
                    if (errno == EINTR || errno == EAGAIN)
                        continue;
                    markDead(s, std::string("link error (") +
                                    std::strerror(errno) + ")");
                    continue;
                }
                if (k == 0) {
                    markDead(s, "closed its broker link");
                    continue;
                }
                sh[s].buf.insert(sh[s].buf.end(), chunk,
                                 chunk + k);
                for (;;) {
                    Frame f;
                    std::size_t used = 0;
                    const DecodeStatus st = net::decodeFrame(
                        sh[s].buf.data(), sh[s].buf.size(), f,
                        used);
                    if (st == DecodeStatus::NeedMore)
                        break;
                    if (st == DecodeStatus::Bad) {
                        markDead(s, "sent a corrupt frame");
                        break;
                    }
                    sh[s].buf.erase(sh[s].buf.begin(),
                                    sh[s].buf.begin() +
                                        static_cast<long>(used));
                    handleFrame(s, f);
                }
            }
        }
        reapTick();
        contTick();
        livenessTick();
    };

    /** Kill + reap every child (bounded), close every fd.  Safe to
     * call on every exit path; idempotent. */
    auto cleanup = [&](bool force) {
        if (lfd >= 0) {
            ::close(lfd);
            lfd = -1;
        }
        for (std::uint32_t s = 0; s < opt.num_shards; ++s) {
            if (sh[s].fd >= 0) {
                ::close(sh[s].fd);
                sh[s].fd = -1;
            }
            if (sh[s].pid <= 0 || sh[s].reaped)
                continue;
            if (force) {
                // SIGCONT first: a stopped child would otherwise
                // sit in the stop state with the KILL pending.
                // (SIGKILL terminates stopped processes too, but
                // be explicit about the intended order.)
                ::kill(sh[s].pid, SIGCONT);
                ::kill(sh[s].pid, SIGKILL);
            }
            const std::int64_t give_up = nowMs() + 5000;
            bool killed = force;
            const int pidfd = openPidfd(sh[s].pid);
            for (;;) {
                int st = 0;
                const pid_t rc =
                    ::waitpid(sh[s].pid, &st, WNOHANG | WUNTRACED);
                if (rc == sh[s].pid && WIFSTOPPED(st)) {
                    ::kill(sh[s].pid, SIGCONT);
                    ::kill(sh[s].pid, SIGKILL);
                    killed = true;
                    continue;
                }
                if (rc == sh[s].pid) {
                    sh[s].reaped = true;
                    sh[s].status = st;
                    break;
                }
                if (rc < 0) {
                    warn("broker: waitpid(", sh[s].pid,
                         "): ", std::strerror(errno));
                    break;
                }
                if (nowMs() > give_up) {
                    if (!killed) {
                        // Escalate once, then wait again.
                        ::kill(sh[s].pid, SIGCONT);
                        ::kill(sh[s].pid, SIGKILL);
                        killed = true;
                        continue;
                    }
                    warn("broker: shard ", s, " (pid ", sh[s].pid,
                         ") is unreapable");
                    break;
                }
                awaitExit(pidfd, give_up - nowMs());
            }
            if (pidfd >= 0)
                ::close(pidfd);
        }
        for (std::uint32_t s = 0; s < opt.num_shards; ++s)
            out.shard_status[s] = sh[s].status;
        out.epoch = cur_epoch;
        out.dead_mask = dead_mask;
    };

    auto failRun = [&](const std::string &why) -> ShardRunResult {
        out.ok = false;
        out.error = why;
        warn("broker: run failed: ", why);
        cleanup(true);
        return out;
    };

    // ---- Phase 1: Hello collection (deadline-bounded) ----------
    {
        const std::int64_t give_up =
            nowMs() + opt.handshake_deadline_ms;
        struct Pending
        {
            int fd;
            std::vector<std::uint8_t> buf;
        };
        std::vector<Pending> pending;
        std::uint32_t hellos = 0;
        std::string hs_err;
        while (hellos < opt.num_shards && hs_err.empty()) {
            if (nowMs() > give_up) {
                hs_err = "handshake deadline (" +
                         std::to_string(
                             opt.handshake_deadline_ms) +
                         " ms) expired with " +
                         std::to_string(hellos) + " of " +
                         std::to_string(opt.num_shards) +
                         " Hellos";
                break;
            }
            reapTick();
            for (std::uint32_t s = 0;
                 s < opt.num_shards && hs_err.empty(); ++s)
                if (sh[s].reaped && !sh[s].hello)
                    hs_err = "shard " + std::to_string(s) +
                             " died during handshake (" +
                             statusStr(sh[s].status) + ")";
            if (!hs_err.empty())
                break;
            std::vector<pollfd> pfds;
            pfds.push_back({lfd, POLLIN, 0});
            for (const Pending &pe : pending)
                pfds.push_back({pe.fd, POLLIN, 0});
            const int rc =
                ::poll(pfds.data(), pfds.size(), 20);
            if (rc <= 0)
                continue;
            if (pfds[0].revents & POLLIN) {
                const int fd = ::accept(lfd, nullptr, nullptr);
                if (fd >= 0)
                    pending.push_back({fd, {}});
            }
            for (std::size_t x = 0; x < pending.size();) {
                const std::size_t px = x + 1; // pfds offset
                bool drop = false;
                if (px < pfds.size() &&
                    (pfds[px].revents &
                     (POLLIN | POLLHUP | POLLERR))) {
                    std::uint8_t chunk[4096];
                    const ssize_t k = ::recv(pending[x].fd, chunk,
                                             sizeof(chunk), 0);
                    if (k > 0)
                        pending[x].buf.insert(
                            pending[x].buf.end(), chunk,
                            chunk + k);
                    else if (k == 0 ||
                             (k < 0 && errno != EINTR &&
                              errno != EAGAIN))
                        drop = true; // died before Hello: the
                                     // reap/deadline names it
                }
                Frame f;
                std::size_t used = 0;
                const DecodeStatus st = net::decodeFrame(
                    pending[x].buf.data(), pending[x].buf.size(),
                    f, used);
                if (st == DecodeStatus::Bad) {
                    drop = true;
                } else if (st == DecodeStatus::Ok) {
                    pending[x].buf.erase(
                        pending[x].buf.begin(),
                        pending[x].buf.begin() +
                            static_cast<long>(used));
                    if (f.type != FrameType::Hello) {
                        drop = true;
                    } else {
                        const std::uint32_t s = f.hello.shard_id;
                        if (s >= opt.num_shards || sh[s].hello) {
                            hs_err = "bad or duplicate shard id " +
                                     std::to_string(s);
                        } else {
                            sh[s].hello = true;
                            sh[s].fd = pending[x].fd;
                            sh[s].buf = std::move(pending[x].buf);
                            sh[s].udp_port = f.hello.udp_port;
                            sh[s].tcp_port = f.hello.tcp_port;
                            sh[s].last_hb = nowMs();
                            pending.erase(pending.begin() +
                                          static_cast<long>(x));
                            ++hellos;
                            continue;
                        }
                    }
                }
                if (drop) {
                    ::close(pending[x].fd);
                    pending.erase(pending.begin() +
                                  static_cast<long>(x));
                    continue;
                }
                ++x;
            }
        }
        for (const Pending &pe : pending)
            ::close(pe.fd);
        if (!hs_err.empty())
            return failRun(hs_err);
        ::close(lfd);
        lfd = -1;

        Frame welcome;
        welcome.type = FrameType::Welcome;
        welcome.welcome.agreed_version = net::kWireVersion;
        welcome.welcome.num_shards = opt.num_shards;
        welcome.welcome.rounds = opt.rounds;
        welcome.welcome.udp_ports.resize(opt.num_shards, 0);
        welcome.welcome.tcp_ports.resize(opt.num_shards, 0);
        for (std::uint32_t s = 0; s < opt.num_shards; ++s) {
            welcome.welcome.udp_ports[s] = sh[s].udp_port;
            welcome.welcome.tcp_ports[s] = sh[s].tcp_port;
        }
        for (std::uint32_t s = 0; s < opt.num_shards; ++s) {
            sh[s].last_hb = nowMs();
            if (!trySendFrame(sh[s].fd, welcome))
                markDead(s, "died before Welcome");
        }
        if (death_pending)
            return failRun(death_desc +
                           " before the data plane came up");
    }

    // ---- Phase 2: collection + recovery ------------------------

    auto aliveCount = [&]() {
        std::uint32_t a = 0;
        for (std::uint32_t s = 0; s < opt.num_shards; ++s)
            a += sh[s].alive ? 1 : 0;
        return a;
    };

    /** Await a (phase, cur_epoch) ack from every live shard.
     * @return 1 = all acked, 0 = a further death interrupted
     * (restart recovery), -1 = timeout. */
    auto awaitAcks = [&](EpochPhase ph) {
        const std::int64_t give_up =
            nowMs() + opt.deadline_ms + 2000;
        for (;;) {
            pumpOnce(10);
            if (death_pending)
                return 0;
            bool all = true;
            for (std::uint32_t s = 0; s < opt.num_shards; ++s)
                if (sh[s].alive &&
                    !(sh[s].ack_epoch == cur_epoch &&
                      sh[s].ack_phase == static_cast<int>(ph)))
                    all = false;
            if (all)
                return 1;
            if (nowMs() > give_up)
                return -1;
        }
    };

    /** The broker half of the three-phase recovery.  Restarts
     * itself while further deaths land mid-handshake.  @return
     * false (with `err` set) only on an unrecoverable state. */
    auto recoverNow = [&](std::string &err) {
        // steady_clock, not nowMs(): a recovery is often well under
        // a millisecond, which whole-ms ticks would report as 0.
        const auto rec_t0 = std::chrono::steady_clock::now();
        for (;;) {
            death_pending = false;
            if (aliveCount() == 0) {
                err = "all shards died (" + death_desc + ")";
                return false;
            }
            ++cur_epoch;
            for (std::uint32_t s = 0; s < opt.num_shards; ++s) {
                sh[s].ack_phase = -1;
                sh[s].has_result = false;
                sh[s].last_hb = nowMs();
            }
            Frame ec;
            ec.type = FrameType::EpochChange;
            ec.epoch_change.epoch = cur_epoch;
            ec.epoch_change.phase = EpochPhase::Quiesce;
            ec.epoch_change.dead_mask = dead_mask;
            for (std::uint32_t s = 0; s < opt.num_shards; ++s)
                if (sh[s].alive &&
                    !trySendFrame(sh[s].fd, ec))
                    markDead(s, "died at Quiesce");
            if (death_pending)
                continue;
            int rc = awaitAcks(EpochPhase::Quiesce);
            if (rc == 0)
                continue;
            if (rc < 0) {
                err = "Quiesce acks timed out";
                return false;
            }
            std::uint64_t rec = ~0ull, qmax = 0;
            for (std::uint32_t s = 0; s < opt.num_shards; ++s) {
                if (!sh[s].alive)
                    continue;
                rec = std::min(rec, sh[s].last_completed);
                qmax = std::max(qmax, sh[s].last_completed);
            }
            ec.epoch_change.phase = EpochPhase::Rollback;
            ec.epoch_change.resume_round = rec;
            for (std::uint32_t s = 0; s < opt.num_shards; ++s)
                if (sh[s].alive &&
                    !trySendFrame(sh[s].fd, ec))
                    markDead(s, "died at Rollback");
            if (death_pending)
                continue;
            rc = awaitAcks(EpochPhase::Rollback);
            if (rc == 0)
                continue;
            if (rc < 0) {
                err = "Rollback acks timed out";
                return false;
            }
            // Fold the survivors' owned partials in ascending
            // shard order -- the one canonical floating-point
            // order everyone (and the test reference) uses.
            std::vector<std::vector<double>> sp(opt.num_shards),
                se(opt.num_shards);
            for (std::uint32_t s = 0; s < opt.num_shards; ++s) {
                if (!sh[s].alive)
                    continue;
                sp[s] = sh[s].sum_p;
                se[s] = sh[s].sum_e;
            }
            ec.epoch_change.phase = EpochPhase::Resume;
            ec.epoch_change.held = foldHeldPartials(sp, se);
            for (std::uint32_t s = 0; s < opt.num_shards; ++s)
                if (sh[s].alive &&
                    !trySendFrame(sh[s].fd, ec))
                    markDead(s, "died at Resume");
            if (death_pending)
                continue;
            for (std::uint32_t s = 0; s < opt.num_shards; ++s)
                sh[s].last_hb = nowMs();
            out.recovery_round = rec;
            out.quiesce_round = qmax;
            ++out.recoveries;
            out.recovery_s += std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  rec_t0)
                                  .count();
            inform("broker: epoch ", cur_epoch,
                   " recovery: dead_mask=", dead_mask,
                   " resume_round=", rec, " quiesce_round=",
                   qmax);
            return true;
        }
    };

    for (;;) {
        pumpOnce(20);
        if (death_pending) {
            if (!opt.recover)
                return failRun(death_desc +
                               " and recover is disabled");
            std::string err;
            if (!recoverNow(err))
                return failRun(err);
            continue;
        }
        if (aliveCount() == 0)
            return failRun("all shards died");
        bool all = true;
        for (std::uint32_t s = 0; s < opt.num_shards; ++s)
            if (sh[s].alive && !sh[s].has_result)
                all = false;
        if (all)
            break;
    }

    // ---- Phase 3: assembly + release ---------------------------

    std::size_t surv_nodes = 0, reported = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (sh[plan.owner_of[i]].alive)
            ++surv_nodes;
    for (std::uint32_t s = 0; s < opt.num_shards; ++s) {
        if (!sh[s].alive)
            continue;
        const net::ResultMsg &m = sh[s].result;
        DPC_ASSERT(m.shard_id == s, "result from wrong shard");
        for (std::size_t i = 0; i < m.node_ids.size(); ++i) {
            const std::uint32_t node = m.node_ids[i];
            DPC_ASSERT(node < n && plan.owner_of[node] == s,
                       "shard ", s, " reported unowned node ",
                       node);
            out.power[node] = m.power[i];
            out.estimates[node] = m.estimate[i];
        }
        reported += m.node_ids.size();
        // The exact global final max |dp|: max over the shards'
        // last-round locals (no data-plane resolution tail here).
        out.final_max_dp =
            std::max(out.final_max_dp, m.final_local_max_dp);
        out.wire_frames += m.frames_sent;
        out.wire_bytes += m.bytes_sent;
        out.retransmits += m.retransmits;
        out.retrans_bytes += m.retrans_bytes;
        out.frames_received += m.frames_received;
        out.bytes_received += m.bytes_received;
        out.duplicates += m.duplicates;
        out.edges_suppressed += m.edges_suppressed;
        out.suppressed_frames += m.suppressed_frames;
        out.delta_frames += m.delta_frames;
        out.wake_messages += m.wake_messages;
        out.stale_epoch_frames += m.stale_epoch_frames;
        out.gaveup_frames += m.gaveup_frames;
        out.suspect_events += m.suspect_events;
        out.peer_suspected |= m.peer_suspected;
        for (std::size_t b = 0; b < m.edges_per_frame_hist.size();
             ++b)
            out.edges_per_frame_hist[b] +=
                m.edges_per_frame_hist[b];
        out.phase_send_s += m.phase_send_s;
        out.phase_interior_s += m.phase_interior_s;
        out.phase_drain_s += m.phase_drain_s;
        out.phase_boundary_s += m.phase_boundary_s;
        out.round_loop_s =
            std::max(out.round_loop_s, m.round_loop_s);
    }
    out.availability =
        surv_nodes == 0
            ? 1.0
            : static_cast<double>(reported) /
                  static_cast<double>(surv_nodes);

    // Every live shard has reported: nobody needs the data plane
    // any more, so release them all ("Bye").
    Frame bye;
    bye.type = FrameType::RoundGo;
    bye.round_go.round = opt.rounds;
    bye.round_go.global_max_dp = out.final_max_dp;
    bye.round_go.stop = 1;
    for (std::uint32_t s = 0; s < opt.num_shards; ++s)
        if (sh[s].fd >= 0)
            trySendFrame(sh[s].fd, bye);

    // Deadline-bounded reap of the normal exits (satellite of
    // PR 9: the old unconditional-blocking waitpid could hang the
    // parent forever behind a wedged child).
    cleanup(false);
    for (std::uint32_t s = 0; s < opt.num_shards; ++s) {
        if ((dead_mask >> s) & 1)
            continue; // an injected death's status is expected
        if (!(sh[s].status >= 0 && WIFEXITED(sh[s].status) &&
              WEXITSTATUS(sh[s].status) == 0)) {
            out.ok = false;
            out.error = "shard " + std::to_string(s) +
                        " exited abnormally (" +
                        statusStr(sh[s].status) + ")";
        }
    }
    return out;
}

} // namespace cluster
} // namespace dpc
