/**
 * @file
 * Discrete-event, store-and-forward packet-level simulation of one
 * control iteration on the physical cluster fabric -- the finer
 * counterpart to the analytic queueing costs in comm_model.hh.
 *
 * Topology: servers sit in racks behind top-of-rack switches, all
 * ToRs connect to one core switch (the two-tier star of
 * Sec. 4.4.1).  Every hop is a FIFO resource with a deterministic
 * per-packet service time: the sender NIC serializes transmissions
 * (write latency), switches forward packets one at a time, and the
 * receiver's protocol stack serializes reads (the paper's measured
 * 200 us TCP read).  Packet launch times get a small exponential
 * jitter so arrival order is realistic; the jitter is counter-based
 * (a hash of src and dst), so it is a function of the packet's
 * identity rather than of iteration order.
 *
 * Two round types are simulated:
 *  - a coordinator gather/scatter (centralized and primal-dual
 *    schemes): all N servers send to one coordinator node, which
 *    replies to each;
 *  - one DiBA round on an arbitrary overlay: every server sends
 *    one packet to each overlay neighbour.
 *
 * The makespan (time until the last packet is fully read) is the
 * per-iteration communication time.
 */

#ifndef DPC_NET_PACKET_SIM_HH
#define DPC_NET_PACKET_SIM_HH

#include <cstddef>
#include <vector>

#include "graph/graph.hh"
#include "net/comm_model.hh"
#include "util/rng.hh"

namespace dpc {

/** Packet-level fabric simulator. */
class PacketLevelSim
{
  public:
    struct FabricParams
    {
        /** Socket-read (protocol stack) service time (us). */
        double read_us = 200.0;
        /** NIC transmit serialization per packet (us). */
        double write_us = 10.0;
        /** Per-packet forwarding delay at a switch (us). */
        double switch_us = 2.0;
        /** Mean exponential jitter on packet launch times (us). */
        double launch_jitter_us = 5.0;
        /** Servers per rack (one ToR each). */
        std::size_t rack_size = 40;
        /** Retransmission timeout for lossy rounds (us). */
        double retx_timeout_us = 1000.0;
    };

    PacketLevelSim() = default;
    explicit PacketLevelSim(FabricParams params)
        : params_(params)
    {
    }

    /**
     * Makespan (us) of one gather+scatter round through a
     * dedicated coordinator attached to the core switch.
     */
    double coordinatorRoundUs(std::size_t n, Rng &rng) const;

    /**
     * Makespan (us) of one DiBA round: every server sends one
     * estimate packet to each overlay neighbour; server i is
     * vertex i of the overlay.  Launch jitter is counter-based,
     * so `rng` is consumed only by the lossy variant's drop draws;
     * it is kept in the signature for API symmetry.
     */
    double dibaRoundUs(const Graph &overlay, Rng &rng) const;

    /**
     * Lossy variant: every estimate packet is independently
     * dropped with probability `drop_rate` somewhere before the
     * receiver's protocol read, and the sender retransmits after
     * `retx_timeout_us` until delivery (at most `max_retx`
     * retries; after that the copy is counted as delivered so the
     * makespan stays finite -- DiBA itself tolerates the residual
     * loss, see dpc::LossyChannel).  Failed attempts still burn
     * NIC and switch time, so loss both delays the round (timeout
     * gaps) and congests the fabric (wasted transmissions).
     */
    double dibaRoundLossyUs(const Graph &overlay, double drop_rate,
                            Rng &rng,
                            std::size_t max_retx = 5) const;

    const FabricParams &params() const { return params_; }

  private:
    /** One packet's route: an ordered list of resource ids. */
    struct Packet
    {
        double launch = 0.0;
        std::vector<std::size_t> route;
        std::vector<double> service;
        /** Dropped copies occupy resources but never complete a
         * delivery, so they are excluded from the makespan. */
        bool counted = true;
    };

    /** Run the FIFO-resource simulation; returns the makespan. */
    double simulate(std::vector<Packet> packets,
                    std::size_t num_resources) const;

    FabricParams params_;
};

} // namespace dpc

#endif // DPC_NET_PACKET_SIM_HH
