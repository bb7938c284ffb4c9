/**
 * @file
 * Sharded multi-process DiBA over the wire protocol: cut-edge
 * traffic and round rate of real forked shard processes exchanging
 * WireCodec frames over 127.0.0.1 sockets, against the
 * single-process transport round as the reference.
 *
 * Grid: chordal rings at n in {6400, 25600}; one single-process
 * row per size, then sharded rows at 2 shards (UDP and TCP) and 4
 * shards (UDP).  Every zero-loss sharded run doubles as a parity
 * bar: the reassembled owned caps/estimates must be BITWISE equal
 * to the single-process run, or the bench exits non-zero -- the
 * gate that makes the perf numbers trustworthy (a wire protocol
 * that drifts from the reference is wrong before it is slow).
 *
 * Sharded rounds_per_sec is computed from the SLOWEST shard's
 * round-loop wall time (reported in its Result frame), not from
 * the whole runShardedDiba() call: fork + broker handshake +
 * result collection cost ~tens of ms once per run, which a real
 * deployment amortizes over its lifetime but which would otherwise
 * drown the per-round signal at bench round counts.
 *
 * Emitted to BENCH_wire.json per row: bytes_per_round,
 * frames_per_round and header_overhead_frac of cut-edge traffic
 * (deterministic in topology + plan: any growth means the batch
 * coalescing regressed or the cut got worse), rounds_per_sec (the
 * timing; gated at the perf threshold), cut_edges / cut_frac (plan
 * quality of the contiguous id blocks), retransmits / duplicates
 * (loopback UDP under zero loss should never need either),
 * edges_suppressed (quiesced halves held, shipping nothing) and the
 * per-phase round breakdown (send / interior compute / drain /
 * boundary compute, ms per round summed over shards).  Every
 * sharded row is gated bitwise against the same reference.
 *
 * On a single-core host the sharded rows are expected to run
 * SLOWER than single-process (the processes time-share one core
 * and add syscalls); the interesting trend is the cut traffic
 * scaling and the protocol overhead per round, which is why
 * rounds_per_sec is compared per-row against its own baseline and
 * never across modes.
 *
 * Steady-state section (active_threshold = 4x tolerance, 2-shard
 * UDP): converge until the frontier drains, hold H fully-quiesced
 * rounds, then apply a +20% budget step and reconverge.  Two
 * sharded runs that differ only in the hold length isolate the
 * quiesced marginals by subtraction -- steady_bytes_per_round is
 * exact (wire traffic is deterministic), steady_rounds_per_sec
 * rides on a hold long enough to dominate the wall-clock delta.
 * step_rounds_to_reconverge comes from the single-process
 * reference the sharded runs are bitwise-pinned to.  Every steady
 * row asserts the quiesced byte ceiling: one suppressed seq-0
 * frame per directed shard pair per round, reports included.
 *
 * DPC_BENCH_SMOKE=1 shrinks to one small size, few rounds, 2
 * shards x {UDP, TCP} -- the ci.sh loopback-vs-socket parity
 * smoke (threshold-0 rows bitwise vs the dense reference, steady
 * rows under the quiesced byte ceiling).
 */

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "bench/common.hh"
#include "cluster/shard.hh"
#include "net/socket_transport.hh"
#include "net/transport.hh"
#include "tools/bench_json.hh"

using namespace dpc;

namespace {

constexpr double kWattsPerNode = 172.0;
constexpr std::uint64_t kProblemSeed = 97;
constexpr std::uint64_t kTopoSeed = 7;

Graph
topologyOf(std::size_t n)
{
    Rng rng(kTopoSeed);
    return makeChordalRing(n, n / 4, rng);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Bitwise vector comparison; returns the mismatch count. */
std::size_t
mismatches(const std::vector<double> &a,
           const std::vector<double> &b)
{
    if (a.size() != b.size())
        return a.size() + b.size();
    std::size_t bad = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        bad += std::memcmp(&a[i], &b[i], sizeof(double)) != 0;
    return bad;
}

const char *
protoName(net::SocketTransport::Proto proto)
{
    return proto == net::SocketTransport::Proto::Udp ? "udp"
                                                     : "tcp";
}

/**
 * Converge -> hold -> +20% step -> reconverge over the wire, at
 * active_threshold = 4x tolerance (a threshold the frontier
 * provably drains under; sub-tolerance thresholds oscillate
 * forever and never quiesce).  Returns the number of bitwise
 * parity mismatches (0 on success) and appends one "steady" row
 * per size to the table and the JSON writer.
 */
std::size_t
runSteadySection(const std::vector<std::size_t> &sizes, bool smoke,
                 Table &table, tools::BenchJsonWriter &writer)
{
    // Hold long enough that the quiesced rounds dominate the
    // wall-clock difference between the two runs; bytes are exact
    // regardless.
    const std::size_t hold = smoke ? 4000 : 20000;
    const std::size_t step_margin = 50;
    const std::size_t drain_cap = 8000;
    constexpr std::uint32_t kShards = 2;
    std::size_t failures = 0;

    for (const std::size_t n : sizes) {
        const auto prob =
            bench::npbProblem(n, kWattsPerNode, kProblemSeed);
        const auto topo = topologyOf(n);
        DibaAllocator::Config cfg;
        cfg.active_threshold = 4.0 * cfg.tolerance;
        const double delta = 0.2 * prob.budget;

        // Single-process reference: find the drain round, then
        // step and count the reconvergence tail.  The sharded runs
        // below are bitwise-pinned to this trajectory, so the
        // drain round and step response transfer exactly.
        DibaAllocator ref(topo, cfg);
        ref.reset(prob);
        std::size_t converge_rounds = 0;
        for (std::size_t r = 1; r <= drain_cap; ++r) {
            ref.iterate();
            if (ref.frontierHotCount() == 0) {
                converge_rounds = r;
                break;
            }
        }
        if (converge_rounds == 0) {
            std::cerr << "wire_shard: steady section at n=" << n
                      << ": frontier failed to drain within "
                      << drain_cap << " rounds\n";
            ++failures;
            continue;
        }
        // A fully-quiesced allocator is bitwise frozen: held
        // rounds move nothing, so this snapshot is the parity
        // target for BOTH the converge run and the hold run.
        const std::vector<double> steady_p = ref.power();
        const std::vector<double> steady_e = ref.estimates();

        ref.warmStart(ref.result(), delta);
        std::size_t step_reconverge = 0;
        for (std::size_t r = 1; r <= drain_cap; ++r) {
            ref.iterate();
            if (ref.frontierHotCount() == 0) {
                step_reconverge = r;
                break;
            }
        }
        for (std::size_t r = step_reconverge; r < step_margin; ++r)
            ref.iterate();

        // Three sharded runs: converge only, converge + hold, and
        // converge + step + margin (the held steady state is
        // frozen, so stepping right at the drain round is the
        // identical scenario with the hold factored out).
        cluster::ShardRunOptions opt;
        opt.num_shards = kShards;
        opt.rounds = converge_rounds;
        const auto runA =
            cluster::runShardedDiba(prob, topo, cfg, opt);

        opt.rounds = converge_rounds + hold;
        const auto runB =
            cluster::runShardedDiba(prob, topo, cfg, opt);

        opt.rounds = converge_rounds + step_margin;
        opt.budget_steps.push_back({converge_rounds, delta});
        const auto runC =
            cluster::runShardedDiba(prob, topo, cfg, opt);

        std::size_t bad = 0;
        if (!runA.ok || !runB.ok || !runC.ok) {
            std::cerr << "wire_shard: steady sharded run failed: "
                      << runA.error << runB.error << runC.error
                      << "\n";
            ++failures;
            continue;
        }
        bad += mismatches(steady_p, runA.power) +
               mismatches(steady_e, runA.estimates);
        bad += mismatches(steady_p, runB.power) +
               mismatches(steady_e, runB.estimates);
        bad += mismatches(ref.power(), runC.power) +
               mismatches(ref.estimates(), runC.estimates);
        failures += bad;

        const double steady_bytes =
            static_cast<double>(runB.wire_bytes -
                                runA.wire_bytes) /
            static_cast<double>(hold);
        const double steady_frames =
            static_cast<double>(runB.wire_frames -
                                runA.wire_frames) /
            static_cast<double>(hold);
        const double hold_s =
            runB.round_loop_s - runA.round_loop_s;
        const double steady_rps =
            hold_s > 0.0 ? static_cast<double>(hold) / hold_s
                         : 0.0;

        // Quiesced byte ceiling: one suppressed seq-0 frame per
        // directed shard pair per round -- fixed part, two zero
        // varints, and a full report piggyback.  The subtraction
        // window's edges can each catch a few stray bytes (a wake
        // word or late report straddling the cut), hence the
        // per-window allowance amortized over the hold.
        const double ceiling =
            static_cast<double>(kShards * (kShards - 1)) *
                static_cast<double>(
                    net::kCutBatchV4Fixed + 2 +
                    24 * net::SocketTransport::kMaxDpReports) +
            256.0 / static_cast<double>(hold);
        if (steady_bytes > ceiling) {
            std::cerr << "wire_shard: steady bytes/round "
                      << steady_bytes
                      << " exceeds the quiesced ceiling "
                      << ceiling << " at n=" << n << "\n";
            ++failures;
        }

        table.addRow({Table::num(n, 0), "steady", "udp",
                      Table::num(kShards, 0),
                      Table::num(runB.plan.cut_edges, 0),
                      Table::num(steady_frames, 1),
                      Table::num(steady_bytes, 0),
                      Table::num(steady_rps, 1),
                      Table::num(runB.retransmits, 0),
                      bad == 0 ? "OK" : "FAIL"});
        writer.record()
            .field("bench", "wire_shard")
            .field("mode", "steady")
            .field("proto", "udp")
            .field("n", static_cast<long long>(n))
            .field("shards", static_cast<long long>(kShards))
            .field("rounds",
                   static_cast<long long>(converge_rounds + hold))
            .field("converge_rounds",
                   static_cast<long long>(converge_rounds))
            .field("hold_rounds", static_cast<long long>(hold))
            .field("steady_bytes_per_round", steady_bytes)
            .field("steady_frames_per_round", steady_frames)
            .field("steady_rounds_per_sec", steady_rps)
            .field("step_rounds_to_reconverge",
                   static_cast<long long>(step_reconverge))
            .field("suppressed_frames",
                   static_cast<long long>(runB.suppressed_frames))
            .field("delta_frames",
                   static_cast<long long>(runB.delta_frames))
            .field("wake_messages",
                   static_cast<long long>(runB.wake_messages))
            .field("cut_edges",
                   static_cast<long long>(runB.plan.cut_edges))
            .field("retransmits",
                   static_cast<long long>(runB.retransmits));
    }
    return failures;
}

} // namespace

int
main()
{
    const bool smoke = std::getenv("DPC_BENCH_SMOKE") != nullptr;
    const std::vector<std::size_t> sizes =
        smoke ? std::vector<std::size_t>{512}
              : std::vector<std::size_t>{6400, 25600};
    const std::size_t rounds = smoke ? 40 : 300;

    bench::banner("wire_shard",
                  "multi-process sharded DiBA over 127.0.0.1: "
                  "cut-edge wire traffic + round rate vs the "
                  "single-process transport round (bitwise parity "
                  "enforced)");

    struct ShardConfig
    {
        std::uint32_t shards;
        net::SocketTransport::Proto proto;
    };
    std::vector<ShardConfig> grid{
        {2, net::SocketTransport::Proto::Udp},
        {2, net::SocketTransport::Proto::Tcp},
    };
    if (!smoke)
        grid.push_back({4, net::SocketTransport::Proto::Udp});

    tools::BenchJsonWriter writer;
    Table table({"n", "mode", "proto", "shards", "cut_edges", "fr_per_round", "B_per_round",
                 "rounds_per_s", "retrans", "parity"});
    std::size_t parity_failures = 0;

    for (const std::size_t n : sizes) {
        const auto prob =
            bench::npbProblem(n, kWattsPerNode, kProblemSeed);
        const auto topo = topologyOf(n);
        const DibaAllocator::Config cfg{};

        // Single-process reference (identity loopback, pinned
        // bitwise to the historical round path).
        DibaAllocator ref(topo, cfg);
        ref.reset(prob);
        net::LoopbackTransport loopback;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < rounds; ++r)
            ref.stepWithTransport(loopback);
        const double single_s = secondsSince(t0);
        const double single_rps =
            static_cast<double>(rounds) / single_s;

        table.addRow({Table::num(n, 0), "single", "-", "1", "0",
                      "0", "0", Table::num(single_rps, 1),
                      "0", "-"});
        writer.record()
            .field("bench", "wire_shard")
            .field("mode", "single")
            .field("proto", "none")
            .field("n", static_cast<long long>(n))
            .field("shards", static_cast<long long>(1))
            .field("rounds", static_cast<long long>(rounds))
            .field("rounds_per_sec", single_rps)
            .field("bytes_per_round", 0.0)
            .field("frames_per_round", 0.0)
            .field("cut_edges", static_cast<long long>(0))
            .field("cut_frac", 0.0)
            .field("retransmits", static_cast<long long>(0));

        for (const auto &sc : grid) {
            cluster::ShardRunOptions opt;
            opt.num_shards = sc.shards;
            opt.rounds = rounds;
            opt.proto = sc.proto;

            const auto run =
                cluster::runShardedDiba(prob, topo, cfg, opt);
            // Rate on the SLOWEST shard's round-loop wall time:
            // the cluster's steady-state rounds/sec.  Fork, broker
            // handshake and result collection are one-time costs a
            // deployment amortizes, so folding them in would just
            // scale the row with 1/rounds instead of the protocol.
            const double shard_rps =
                run.round_loop_s > 0.0
                    ? static_cast<double>(rounds) /
                          run.round_loop_s
                    : 0.0;

            // Zero loss: the sharded trajectory must be BITWISE
            // the single-process one on every node.
            const std::size_t bad =
                mismatches(ref.power(), run.power) +
                mismatches(ref.estimates(), run.estimates);
            parity_failures += bad;

            const double bytes_per_round =
                static_cast<double>(run.wire_bytes) /
                static_cast<double>(rounds);
            const double frames_per_round =
                static_cast<double>(run.wire_frames) /
                static_cast<double>(rounds);
            // Frame-header bytes as a fraction of first-transmit
            // wire bytes (batch efficiency: v1's per-half frames
            // sat at 12/60 = 0.2).
            const double header_frac =
                run.wire_bytes == 0
                    ? 0.0
                    : static_cast<double>(run.wire_frames) * 12.0 /
                          static_cast<double>(run.wire_bytes);
            const double per_round_ms =
                1000.0 / static_cast<double>(rounds);

            table.addRow(
                {Table::num(n, 0), "sharded", protoName(sc.proto),
                 Table::num(sc.shards, 0),
                 Table::num(run.plan.cut_edges, 0),
                 Table::num(frames_per_round, 1),
                 Table::num(bytes_per_round, 0),
                 Table::num(shard_rps, 1),
                 Table::num(run.retransmits, 0),
                 bad == 0 ? "OK" : "FAIL"});
            writer.record()
                .field("bench", "wire_shard")
                .field("mode", "sharded")
                .field("proto", protoName(sc.proto))
                .field("n", static_cast<long long>(n))
                .field("shards",
                       static_cast<long long>(sc.shards))
                .field("rounds", static_cast<long long>(rounds))
                .field("rounds_per_sec", shard_rps)
                .field("bytes_per_round", bytes_per_round)
                .field("frames_per_round", frames_per_round)
                .field("header_overhead_frac", header_frac)
                .field("cut_edges",
                       static_cast<long long>(run.plan.cut_edges))
                .field("cut_frac", run.plan.cutFraction())
                .field("retransmits",
                       static_cast<long long>(run.retransmits))
                .field("retrans_bytes",
                       static_cast<long long>(run.retrans_bytes))
                .field("duplicates",
                       static_cast<long long>(run.duplicates))
                .field("edges_suppressed",
                       static_cast<long long>(
                           run.edges_suppressed))
                // Per-round phase breakdown, summed over shards.
                .field("phase_send_ms",
                       run.phase_send_s * per_round_ms)
                .field("phase_interior_ms",
                       run.phase_interior_s * per_round_ms)
                .field("phase_drain_ms",
                       run.phase_drain_s * per_round_ms)
                .field("phase_boundary_ms",
                       run.phase_boundary_s * per_round_ms);
        }
    }

    parity_failures +=
        runSteadySection(sizes, smoke, table, writer);

    table.print(std::cout);
    writer.save("BENCH_wire.json");

    if (parity_failures != 0) {
        std::cerr << "wire_shard: " << parity_failures
                  << " bitwise parity mismatch(es) between "
                     "sharded and single-process runs\n";
        return 1;
    }
    std::cout << "\nwire_shard: every sharded run bitwise-matched "
                 "the single-process reference\n";
    return 0;
}
