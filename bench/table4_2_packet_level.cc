/**
 * @file
 * Table 4.2 communication columns re-derived from the packet-level
 * discrete-event fabric simulation (store-and-forward NICs,
 * ToR/core switches, serialized protocol-stack reads), validating
 * the coarse queueing model used by the main Table 4.2 bench: the
 * coordinator round grows linearly with N while the DiBA round is
 * flat, so at scale the coordinator-based schemes pay orders of
 * magnitude more per iteration.
 */

#include "bench/common.hh"
#include "net/packet_sim.hh"

using namespace dpc;

int
main()
{
    bench::banner("Table 4.2 (packet-level cross-check)",
                  "Per-iteration communication time (ms) from the "
                  "DES fabric vs. the analytic queueing model");

    PacketLevelSim des;
    CommModel analytic;
    Rng rng(91);

    Table table({"nodes", "coord_des_ms", "coord_model_ms",
                 "diba_des_ms", "diba_model_ms", "ratio_at_scale"});
    for (std::size_t n : {400u, 800u, 1600u, 3200u, 6400u}) {
        const double c_des =
            des.coordinatorRoundUs(n, rng) / 1000.0;
        const double c_model =
            analytic.coordinatorRoundUs(n, rng) / 1000.0;
        const auto ring = makeRing(n);
        const double d_des = des.dibaRoundUs(ring, rng) / 1000.0;
        const double d_model =
            analytic.dibaRoundUs(ring) / 1000.0;
        table.addRow({Table::num((long long)n),
                      Table::num(c_des, 2), Table::num(c_model, 2),
                      Table::num(d_des, 3), Table::num(d_model, 3),
                      Table::num(c_des / d_des, 0)});
    }
    table.print(std::cout);
    std::cout
        << "\nShape: both models agree that the coordinator round "
           "is ~N x (read+write) while a ring DiBA round costs a "
           "couple of reads regardless of N.\n";
    return 0;
}
