/**
 * @file
 * Shard-death recovery drill: SIGKILL (and SIGSTOP-past-deadline)
 * real forked shard processes mid-run and measure the epoch-fenced
 * recovery -- detection latency in rounds, rollback depth, recovery
 * wall time, and post-recovery availability -- while PROVING the
 * survivors correct: their trajectory must be bitwise-equal to a
 * single-process allocator that suffers the identical surgery
 * (applyShardRecovery) at the identical round boundary, and that
 * reference is InvariantChecker-audited every post-recovery round,
 * so cap conservation on the survivor partition is machine-checked.
 *
 * Scenarios per size: 2-shard UDP kill, 2-shard TCP kill, 4-shard
 * UDP kill, and a 2-shard SIGSTOP that outlives the liveness
 * deadline (the hung-not-dead path: the broker must SIGKILL it
 * itself before recovery can begin).
 *
 * Emitted to BENCH_wire_recovery.json per row: detection_rounds
 * (quiesce round minus fault round: how far the survivors ran
 * before the obituary landed), recovery_rounds (quiesce minus
 * resume round: the rollback depth the checkpoint ring absorbed),
 * recovery_ms (death confirmed -> Resume broadcast), availability
 * (survivor nodes reporting / survivor nodes total),
 * worst_residual_w from the reference audit, and settle_rounds
 * (the rounds the reference takes from the resume round to
 * converged(): the survivor seed puts them at quiet_rounds).  The
 * bench exits non-zero on any parity mismatch, availability below
 * 0.999, a detection/rollback depth the checkpoint ring could not
 * have covered, or settle_rounds above quiet_rounds + 3 -- the
 * same absolute bars tools/bench_compare.py applies to the
 * committed baseline.
 *
 * DPC_BENCH_SMOKE=1 shrinks to one small size and few rounds --
 * the ci.sh kill-recovery smoke (UDP and TCP).
 */

#include <cstdlib>
#include <cstring>

#include "bench/common.hh"
#include "cluster/shard.hh"
#include "fault/invariant_checker.hh"
#include "fault/shard_fault.hh"
#include "net/transport.hh"
#include "tools/bench_json.hh"

using namespace dpc;

namespace {

constexpr double kWattsPerNode = 172.0;
constexpr std::uint64_t kProblemSeed = 97;
constexpr std::uint64_t kTopoSeed = 7;
constexpr double kAvailabilityBar = 0.999;
constexpr std::uint64_t kDetectionBar = 8;
/** Rounds past quiet_rounds a seeded survivor may take to settle. */
constexpr std::size_t kSettleSlack = 3;
/** Reference rounds past the run's end spent looking for the
 * settle round of a survivor that has not settled yet. */
constexpr std::size_t kSettleSearch = 20000;

Graph
topologyOf(std::size_t n)
{
    Rng rng(kTopoSeed);
    return makeChordalRing(n, n / 4, rng);
}

const char *
protoName(net::SocketTransport::Proto proto)
{
    return proto == net::SocketTransport::Proto::Udp ? "udp"
                                                     : "tcp";
}

/** Bitwise mismatches over the SURVIVOR-owned entries. */
std::size_t
survivorMismatches(const cluster::ShardRunResult &res,
                   const std::vector<double> &ref_p,
                   const std::vector<double> &ref_e)
{
    std::size_t bad = 0;
    for (std::size_t i = 0; i < ref_p.size(); ++i) {
        if ((res.dead_mask >> res.plan.owner_of[i]) & 1)
            continue;
        bad +=
            std::memcmp(&res.power[i], &ref_p[i], sizeof(double)) !=
            0;
        bad += std::memcmp(&res.estimates[i], &ref_e[i],
                           sizeof(double)) != 0;
    }
    return bad;
}

} // namespace

int
main()
{
    const bool smoke = std::getenv("DPC_BENCH_SMOKE") != nullptr;
    const std::vector<std::size_t> sizes =
        smoke ? std::vector<std::size_t>{512}
              : std::vector<std::size_t>{1024, 4096};
    const std::size_t rounds = smoke ? 40 : 120;
    const std::uint64_t fault_round = rounds / 2;

    bench::banner(
        "wire_recovery",
        "SIGKILL/SIGSTOP forked shard processes mid-run: "
        "epoch-fenced recovery latency + availability, survivors "
        "bitwise-checked against the single-process surgery "
        "reference");

    struct Scenario
    {
        const char *name;
        std::uint32_t shards;
        std::uint32_t victim;
        net::SocketTransport::Proto proto;
        bool stall; ///< SIGSTOP past the deadline instead of kill
    };
    const std::vector<Scenario> grid{
        {"kill", 2, 1, net::SocketTransport::Proto::Udp, false},
        {"kill", 2, 1, net::SocketTransport::Proto::Tcp, false},
        {"kill", 4, 2, net::SocketTransport::Proto::Udp, false},
        {"hang", 2, 1, net::SocketTransport::Proto::Udp, true},
    };

    tools::BenchJsonWriter writer;
    Table table({"n", "scenario", "proto", "shards", "detect_r",
                 "rollback_r", "recovery_ms", "settle_r", "avail",
                 "resid_w", "parity"});
    std::size_t failures = 0;

    for (const std::size_t n : sizes) {
        const auto prob =
            bench::npbProblem(n, kWattsPerNode, kProblemSeed);
        const auto topo = topologyOf(n);
        const DibaAllocator::Config cfg{};

        for (const Scenario &sc : grid) {
            cluster::ShardRunOptions opt;
            opt.num_shards = sc.shards;
            opt.rounds = rounds;
            opt.proto = sc.proto;
            opt.recover = true;
            opt.deadline_ms = 600;
            if (sc.stall)
                opt.faults.stallAt(sc.victim, fault_round, 600000);
            else
                opt.faults.killAt(sc.victim, fault_round);

            const auto res =
                cluster::runShardedDiba(prob, topo, cfg, opt);
            if (!res.ok) {
                std::cerr << "wire_recovery: " << sc.name << " n="
                          << n << ": run failed: " << res.error
                          << "\n";
                ++failures;
                continue;
            }

            // Reference: single-process to the resume round, the
            // identical surgery, then the remaining rounds -- with
            // the safety invariants audited after every
            // post-recovery round (check() panics on violation).
            DibaAllocator ref(topo, cfg);
            ref.reset(prob);
            net::LoopbackTransport loopback;
            for (std::uint64_t r = 0; r < res.recovery_round; ++r)
                ref.stepWithTransport(loopback);
            cluster::applyShardRecovery(ref, res.plan,
                                        res.dead_mask, res.epoch);
            InvariantChecker checker;
            checker.check(ref);
            std::size_t settle_r = 0; // 0: not settled yet
            const auto noteSettled = [&](std::size_t r) {
                if (settle_r == 0 && ref.converged())
                    settle_r = r + 1 - res.recovery_round;
            };
            for (std::size_t r = res.recovery_round; r < rounds;
                 ++r) {
                ref.stepWithTransport(loopback);
                checker.check(ref);
                noteSettled(r);
            }

            const std::size_t bad = survivorMismatches(
                res, ref.power(), ref.estimates());
            for (std::size_t r = rounds;
                 settle_r == 0 && r < rounds + kSettleSearch; ++r) {
                ref.stepWithTransport(loopback);
                noteSettled(r);
            }
            const bool settled =
                settle_r != 0 &&
                settle_r <= cfg.quiet_rounds + kSettleSlack;
            // Saturating: a survivor can quiesce before it even
            // reaches the victim's fault round (detection landed
            // faster than the round clock ticks).
            const std::uint64_t detect_r =
                res.quiesce_round > fault_round
                    ? res.quiesce_round - fault_round
                    : 0;
            const std::uint64_t rollback_r =
                res.quiesce_round - res.recovery_round;
            const double recovery_ms = res.recovery_s * 1000.0;

            if (bad != 0 || res.availability < kAvailabilityBar ||
                detect_r > kDetectionBar ||
                rollback_r > cluster::kShardCheckpointDepth ||
                !settled)
                ++failures;

            table.addRow(
                {Table::num(n, 0), sc.name, protoName(sc.proto),
                 Table::num(sc.shards, 0), Table::num(detect_r, 0),
                 Table::num(rollback_r, 0),
                 Table::num(recovery_ms, 1),
                 Table::num(settle_r, 0),
                 Table::num(res.availability, 4),
                 Table::num(checker.worstResidual(), 3),
                 bad == 0 ? "OK" : "FAIL"});
            writer.record()
                .field("bench", "wire_recovery")
                .field("scenario", sc.name)
                .field("proto", protoName(sc.proto))
                .field("n", static_cast<long long>(n))
                .field("shards",
                       static_cast<long long>(sc.shards))
                .field("rounds", static_cast<long long>(rounds))
                .field("fault_round",
                       static_cast<long long>(fault_round))
                .field("detection_rounds",
                       static_cast<long long>(detect_r))
                .field("recovery_rounds",
                       static_cast<long long>(rollback_r))
                .field("recovery_ms", recovery_ms)
                .field("settle_rounds",
                       static_cast<long long>(settle_r))
                .field("quiet_rounds",
                       static_cast<long long>(cfg.quiet_rounds))
                .field("availability", res.availability)
                .field("worst_residual_w",
                       checker.worstResidual())
                .field("stale_epoch_frames",
                       static_cast<long long>(
                           res.stale_epoch_frames))
                .field("gaveup_frames", static_cast<long long>(
                                            res.gaveup_frames));
        }
    }

    table.print(std::cout);
    writer.save("BENCH_wire_recovery.json");

    if (failures != 0) {
        std::cerr << "wire_recovery: " << failures
                  << " scenario(s) failed the recovery bars "
                     "(parity / availability / detection depth "
                     "/ settle rounds)\n";
        return 1;
    }
    std::cout << "\nwire_recovery: every recovery was "
                 "bitwise-correct, invariant-clean, and within "
                 "the detection and settle bars\n";
    return 0;
}
