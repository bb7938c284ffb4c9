#include "net/packet_sim.hh"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/logging.hh"

namespace dpc {

namespace {

/**
 * Resource-id layout of the two-tier fabric: per-server NIC
 * transmit and protocol-read resources, one ToR per rack, one core
 * switch, and a coordinator NIC pair.
 */
struct FabricLayout
{
    std::size_t n;
    std::size_t racks;
    std::size_t rack_size;

    std::size_t tx(std::size_t s) const { return s; }
    std::size_t rx(std::size_t s) const { return n + s; }
    std::size_t tor(std::size_t s) const
    {
        return 2 * n + s / rack_size;
    }
    std::size_t core() const { return 2 * n + racks; }
    std::size_t coordTx() const { return core() + 1; }
    std::size_t coordRx() const { return core() + 2; }
    std::size_t numResources() const { return core() + 3; }
};

/**
 * Counter-based launch jitter: an Exp(1/mean_us) variate derived
 * from a splitmix64-style hash of (src, dst) instead of a
 * sequential rng draw.  Packet jitter therefore depends only on
 * the packet's identity, never on the iteration order that
 * generated it, which makes simulated rounds
 * schedule-independent.
 */
double
launchJitterUs(std::size_t src, std::size_t dst, double mean_us)
{
    std::uint64_t x = static_cast<std::uint64_t>(src) *
                          0x9e3779b97f4a7c15ull ^
                      static_cast<std::uint64_t>(dst) *
                          0xbf58476d1ce4e5b9ull;
    // splitmix64 finalizer: full avalanche, so nearby ids give
    // independent-looking uniforms.
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    // 53-bit mantissa uniform in [0, 1), then the exponential
    // inverse CDF (u == 0 maps to zero jitter, never to infinity).
    const double u =
        static_cast<double>(x >> 11) * 0x1.0p-53;
    return -mean_us * std::log1p(-u);
}

} // namespace

double
PacketLevelSim::simulate(std::vector<Packet> packets,
                         std::size_t num_resources) const
{
    // Chronological event processing: because every resource is
    // FIFO and serves in arrival order, handling "arrive at
    // resource" events in global time order yields the exact
    // store-and-forward schedule.  Ties break on (packet, stage) --
    // an explicit total order, so the schedule is reproducible
    // bitwise rather than only up to tie permutations.
    struct Event
    {
        double time;
        std::size_t packet;
        std::size_t stage;
        bool operator>(const Event &o) const
        {
            if (time != o.time)
                return time > o.time;
            if (packet != o.packet)
                return packet > o.packet;
            return stage > o.stage;
        }
    };
    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        events;
    for (std::size_t p = 0; p < packets.size(); ++p) {
        DPC_ASSERT(packets[p].route.size() ==
                       packets[p].service.size(),
                   "route/service length mismatch");
        DPC_ASSERT(!packets[p].route.empty(), "empty packet route");
        events.push({packets[p].launch, p, 0});
    }

    std::vector<double> free_at(num_resources, 0.0);
    double makespan = 0.0;
    while (!events.empty()) {
        const Event ev = events.top();
        events.pop();
        const Packet &pkt = packets[ev.packet];
        const std::size_t r = pkt.route[ev.stage];
        DPC_ASSERT(r < num_resources, "resource id out of range");
        const double start = std::max(ev.time, free_at[r]);
        const double done = start + pkt.service[ev.stage];
        free_at[r] = done;
        if (ev.stage + 1 < pkt.route.size()) {
            events.push({done, ev.packet, ev.stage + 1});
        } else if (pkt.counted) {
            makespan = std::max(makespan, done);
        }
    }
    return makespan;
}

double
PacketLevelSim::coordinatorRoundUs(std::size_t n, Rng &rng) const
{
    DPC_ASSERT(n >= 1, "empty cluster");
    (void)rng; // jitter is counter-based (launchJitterUs)
    const FabricLayout f{
        n, (n + params_.rack_size - 1) / params_.rack_size,
        params_.rack_size};

    // Uplink: every server sends its state to the coordinator.
    std::vector<Packet> uplink;
    uplink.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
        Packet p;
        // The coordinator plays "destination n" in the jitter hash
        // (no server has that id).
        p.launch = launchJitterUs(s, n, params_.launch_jitter_us);
        p.route = {f.tx(s), f.tor(s), f.core(), f.coordRx()};
        p.service = {params_.write_us, params_.switch_us,
                     params_.switch_us, params_.read_us};
        uplink.push_back(std::move(p));
    }
    // The downlink reply to server s can only launch after the
    // coordinator has read s's packet; conservatively (and
    // faithfully to the serial coordinator) replies start after
    // the full gather completes.
    const double gather = simulate(uplink, f.numResources());

    std::vector<Packet> downlink;
    downlink.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
        Packet p;
        p.launch = gather;
        p.route = {f.coordTx(), f.core(), f.tor(s), f.rx(s)};
        p.service = {params_.write_us, params_.switch_us,
                     params_.switch_us, params_.read_us};
        downlink.push_back(std::move(p));
    }
    return simulate(downlink, f.numResources());
}

double
PacketLevelSim::dibaRoundUs(const Graph &overlay, Rng &rng) const
{
    const std::size_t n = overlay.numVertices();
    DPC_ASSERT(n >= 2, "overlay too small");
    (void)rng; // jitter is counter-based (launchJitterUs)
    const FabricLayout f{
        n, (n + params_.rack_size - 1) / params_.rack_size,
        params_.rack_size};

    std::vector<Packet> packets;
    packets.reserve(2 * overlay.numEdges());
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t d : overlay.neighbors(s)) {
            Packet p;
            p.launch = launchJitterUs(s, d, params_.launch_jitter_us);
            if (f.tor(s) == f.tor(d)) {
                p.route = {f.tx(s), f.tor(s), f.rx(d)};
                p.service = {params_.write_us, params_.switch_us,
                             params_.read_us};
            } else {
                p.route = {f.tx(s), f.tor(s), f.core(), f.tor(d),
                           f.rx(d)};
                p.service = {params_.write_us, params_.switch_us,
                             params_.switch_us, params_.switch_us,
                             params_.read_us};
            }
            packets.push_back(std::move(p));
        }
    }
    return simulate(std::move(packets), f.numResources());
}

double
PacketLevelSim::dibaRoundLossyUs(const Graph &overlay,
                                 double drop_rate, Rng &rng,
                                 std::size_t max_retx) const
{
    const std::size_t n = overlay.numVertices();
    DPC_ASSERT(n >= 2, "overlay too small");
    DPC_ASSERT(drop_rate >= 0.0 && drop_rate < 1.0,
               "drop_rate must be in [0, 1)");
    const FabricLayout f{
        n, (n + params_.rack_size - 1) / params_.rack_size,
        params_.rack_size};

    std::vector<Packet> packets;
    packets.reserve(2 * overlay.numEdges());
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t d : overlay.neighbors(s)) {
            const double jitter =
                launchJitterUs(s, d, params_.launch_jitter_us);
            // Geometric number of attempts, capped: the last copy
            // always counts as the delivery.  At zero loss no
            // draw is consumed, keeping the entry bitwise
            // equivalent to the lossless round.
            std::size_t attempts = 1;
            while (drop_rate > 0.0 && attempts <= max_retx &&
                   rng.bernoulli(drop_rate))
                ++attempts;
            for (std::size_t a = 0; a < attempts; ++a) {
                Packet p;
                p.launch = jitter + static_cast<double>(a) *
                                        params_.retx_timeout_us;
                p.counted = a + 1 == attempts;
                if (f.tor(s) == f.tor(d)) {
                    p.route = {f.tx(s), f.tor(s), f.rx(d)};
                    p.service = {params_.write_us,
                                 params_.switch_us,
                                 params_.read_us};
                } else {
                    p.route = {f.tx(s), f.tor(s), f.core(),
                               f.tor(d), f.rx(d)};
                    p.service = {params_.write_us,
                                 params_.switch_us,
                                 params_.switch_us,
                                 params_.switch_us,
                                 params_.read_us};
                }
                if (!p.counted) {
                    // The dropped copy vanishes before the
                    // receiver's protocol read.
                    p.route.pop_back();
                    p.service.pop_back();
                }
                packets.push_back(std::move(p));
            }
        }
    }
    return simulate(std::move(packets), f.numResources());
}

} // namespace dpc
