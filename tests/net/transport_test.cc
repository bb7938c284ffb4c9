#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "alloc/diba.hh"
#include "fault/lossy_channel.hh"
#include "graph/topologies.hh"
#include "net/socket_transport.hh"
#include "net/transport.hh"
#include "tests/alloc/test_problems.hh"

namespace dpc {
namespace {

void
expectBitwiseEqual(const std::vector<double> &a,
                   const std::vector<double> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i], b[i]) << "index " << i;
        EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
            << "bit pattern differs at index " << i;
    }
}

TEST(TransportRoundTest, IdentityLoopbackMatchesPlainIterate)
{
    // iterateShard over the identity loopback is the same round as
    // iterate(), bit for bit -- the pin the whole Transport
    // promotion rests on.
    const auto prob = test::npbProblem(64, 170.0, 5);
    Rng topo_rng(9);
    const auto topo = makeChordalRing(64, 8, topo_rng);

    DibaAllocator plain(topo, DibaAllocator::Config{});
    DibaAllocator routed(topo, DibaAllocator::Config{});
    plain.reset(prob);
    routed.reset(prob);

    net::LoopbackTransport loopback;
    for (int r = 0; r < 40; ++r) {
        const double a = plain.iterate();
        const double b = routed.iterateShard(loopback, 0, 64);
        EXPECT_DOUBLE_EQ(a, b) << "round " << r;
    }
    expectBitwiseEqual(plain.power(), routed.power());
    expectBitwiseEqual(plain.estimates(), routed.estimates());
}

TEST(TransportRoundTest, ChannelDrawsFollowLiveEdgesInCanonicalOrder)
{
    // The routed round queries its channel once per LIVE pair, in
    // canonical edge_id order: dead endpoints and cut links are
    // skipped before the query and consume no draw.  A twin
    // channel queried directly over the live edges in that order
    // must therefore deal exactly the same fates, round after
    // round, through node churn and a link cut.
    LossyChannel::Config loss;
    loss.drop_rate = 0.2;
    loss.burst_enter = 0.05;
    loss.delay_rate = 0.15;
    loss.max_lag = 3;

    const std::size_t n = 48;
    const auto prob = test::npbProblem(n, 170.0, 7);
    Rng topo_rng(3);
    const auto topo = makeChordalRing(n, 6, topo_rng);

    DibaAllocator diba(topo, DibaAllocator::Config{});
    diba.reset(prob);
    const auto &edges = diba.overlayEdges();
    const auto [cut_u, cut_v] = edges[edges.size() / 2];

    LossyChannel chan(loss, 1234), twin(loss, 1234);
    net::LoopbackTransport loopback;
    for (int r = 0; r < 60; ++r) {
        if (r == 10)
            diba.failNode(5);
        if (r == 20)
            diba.setEdgeEnabled(cut_u, cut_v, false);
        if (r == 30)
            diba.joinNode(5);
        if (r == 40)
            diba.setEdgeEnabled(cut_u, cut_v, true);
        diba.stepWithTransport(loopback, &chan);

        twin.beginRound(edges.size());
        for (std::size_t id = 0; id < edges.size(); ++id) {
            const auto [u, v] = edges[id];
            if (diba.isActive(u) && diba.isActive(v) &&
                diba.edgeEnabled(u, v))
                twin.fate(id, u, v);
        }
        ASSERT_EQ(chan.stats().offered, twin.stats().offered)
            << "round " << r;
        ASSERT_EQ(chan.stats().dropped, twin.stats().dropped)
            << "round " << r;
        ASSERT_EQ(chan.stats().stale, twin.stats().stale)
            << "round " << r;
    }
    EXPECT_GT(chan.stats().dropped, 0u);
    EXPECT_GT(chan.stats().stale, 0u);
}

TEST(TransportRoundTest, TransportRoundSurvivesNodeChurn)
{
    // A lossy routed round under node churn: the failed node's
    // edges are skipped before the channel query (a twin channel
    // fed only the live edges deals the same fates), its draw is
    // gone while it is down, and the survivors keep the budget
    // guarantee through the failure and the rejoin.
    LossyChannel::Config loss;
    loss.drop_rate = 0.1;

    const std::size_t n = 32;
    const auto prob = test::npbProblem(n, 170.0, 11);
    Rng topo_rng(4);
    const auto topo = makeChordalRing(n, 6, topo_rng);

    DibaAllocator diba(topo, DibaAllocator::Config{});
    diba.reset(prob);
    const auto &edges = diba.overlayEdges();

    LossyChannel chan(loss, 77), twin(loss, 77);
    net::LoopbackTransport loopback;
    for (int r = 0; r < 50; ++r) {
        if (r == 10)
            diba.failNode(5);
        if (r == 30)
            diba.joinNode(5);
        diba.stepWithTransport(loopback, &chan);

        twin.beginRound(edges.size());
        for (std::size_t id = 0; id < edges.size(); ++id) {
            const auto [u, v] = edges[id];
            if (diba.isActive(u) && diba.isActive(v))
                twin.fate(id, u, v);
        }
        ASSERT_EQ(chan.stats().offered, twin.stats().offered)
            << "round " << r;
        ASSERT_EQ(chan.stats().dropped, twin.stats().dropped)
            << "round " << r;
        EXPECT_EQ(diba.isActive(5), r < 10 || r >= 30)
            << "round " << r;
        EXPECT_LE(diba.totalPower(), prob.budget) << "round " << r;
    }
    EXPECT_GT(chan.stats().dropped, 0u);
}

TEST(SocketTransportTest, ConcurrentUdpTransportsGetDistinctPorts)
{
    // Every live UDP transport owns its port alone: a port-0 bind
    // must never hand out one another open transport holds, or
    // concurrent runs would read each other's batches.
    std::vector<std::unique_ptr<net::SocketTransport>> open;
    std::set<std::uint16_t> ports;
    for (int i = 0; i < 384; ++i) {
        net::SocketTransport::Config cfg;
        cfg.proto = net::SocketTransport::Proto::Udp;
        open.push_back(std::make_unique<net::SocketTransport>(cfg));
        EXPECT_TRUE(ports.insert(open.back()->localPort()).second)
            << "port " << open.back()->localPort()
            << " handed out twice";
    }
}

/** Shard `id` of a two-node overlay whose one edge is cut between
 * shard 0 and shard 1; a round that waits 60 ms is fatal. */
net::SocketTransport::Config
twoShardConfig(std::uint32_t id)
{
    net::SocketTransport::Config cfg;
    cfg.shard_id = id;
    cfg.num_shards = 2;
    cfg.owner_of = {0, 1};
    cfg.edges = {{0, 1}};
    cfg.retrans_ms = 5;
    cfg.round_timeout_ms = 60;
    return cfg;
}

/** Shard 0 offers its half of round 0 and polls while shard 1
 * never sends.  A non-empty `forged` is delivered to shard 0 first,
 * as a datagram from outside either transport. */
void
pollAgainstSilentPeer(const std::vector<std::uint8_t> &forged)
{
    net::SocketTransport a(twoShardConfig(0));
    net::SocketTransport b(twoShardConfig(1));
    const std::vector<std::uint16_t> ports = {a.localPort(),
                                              b.localPort()};
    a.connectPeers(ports);
    b.connectPeers(ports);
    if (!forged.empty()) {
        const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
        sockaddr_in to{};
        to.sin_family = AF_INET;
        to.sin_port = htons(a.localPort());
        to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        ::sendto(fd, forged.data(), forged.size(), 0,
                 reinterpret_cast<sockaddr *>(&to), sizeof(to));
        ::close(fd);
    }
    double row[2] = {0.0, 0.0};
    double *rows[1] = {row};
    a.beginRound(0, net::Transport::PatchSink{rows, 1});
    a.send(net::EdgePair{/*edge_id=*/0, /*u=*/0, /*v=*/1,
                         /*round=*/0, /*e_u=*/1.0, /*e_v=*/2.0});
    a.poll();
}

TEST(SocketTransportDeathTest, RoundTimeoutNamesThePeerItWaitsOn)
{
    // A peer that never sends leaves no seq-0 declaration...
    EXPECT_EXIT(pollAgainstSilentPeer({}),
                ::testing::ExitedWithCode(1),
                "round 0 still owed by peer 1 \\(no seq-0 seen\\)");

    // ...and one whose seq-0 frame declares records that never
    // arrive is named with its filed and declared counts.
    net::CutBatchMsg m;
    m.sender = 1;
    m.seq = 0;
    m.total_changed = 2;
    m.hot_mode = net::kHotClear;
    std::vector<std::uint8_t> forged;
    net::encodeCutBatch(m, forged);
    EXPECT_EXIT(pollAgainstSilentPeer(forged),
                ::testing::ExitedWithCode(1),
                "round 0 still owed by peer 1 \\(got 0 of 2 declared "
                "records\\)");
}

} // namespace
} // namespace dpc
