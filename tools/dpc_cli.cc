/**
 * @file
 * dpc — command-line front end to the library.
 *
 *   dpc allocate  --nodes N --budget W/node [--scheme S]
 *                 [--topology T] [--chords K] [--seed X]
 *       Solve one static budget-allocation instance and print the
 *       per-benchmark cap summary plus SNP metrics.
 *       Schemes: diba (default), pd, kkt, uniform, greedy.
 *       Topologies: ring (default), chordal, er, complete.
 *
 *   dpc simulate  --nodes N --budget W/node --duration SECONDS
 *                 [--churn MEAN_S] [--drop FRAC] [--seed X]
 *       Run the dynamic cluster simulator; with --drop the budget
 *       falls to FRAC of nominal for the middle third of the run.
 *
 *   dpc topology  --nodes N [--budget W/node] [--seed X]
 *       Convergence/communication sweep across overlay topologies.
 *
 *   dpc shard     --nodes N --shards S [--rounds R] [--proto P]
 *                 [--budget W/node] [--seed X] [--stats 1]
 *                 [--depth D] [--retrans-ms MS] [--threshold M]
 *                 [--kill-shard S@R] [--stall-shard S@R:D_MS]
 *                 [--recover 0|1] [--deadline-ms MS]
 *       Fork S real shard processes that split the overlay and run
 *       DiBA over 127.0.0.1 sockets (proto: udp or tcp), then
 *       verify the reassembled caps bitwise against an in-process
 *       run -- the multi-host deployment path in miniature.
 *       --stats 1 prints the wire accounting (frames/bytes both
 *       directions, retransmits, dedup hits, suppressed halves,
 *       suppressed/delta frames and wake notifications of the
 *       sparse steady-state path, edges-per-frame histogram) and
 *       the per-phase round breakdown; --depth D enables
 *       bounded-staleness pipelining; --threshold M sets the
 *       active-set threshold to M x tolerance (M > 0 engages the
 *       sparse wire path).  --kill-shard S@R SIGKILLs shard S at
 *       the top of round R; --stall-shard S@R:D_MS SIGSTOPs it
 *       there and the broker resumes it after D_MS ms; --recover 1
 *       survives a confirmed death by rolling the survivors back
 *       and re-federating the dead block's budget; --deadline-ms
 *       is the broker's liveness deadline for a silent shard.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "alloc/diba.hh"
#include "util/logging.hh"
#include "alloc/greedy.hh"
#include "alloc/kkt.hh"
#include "alloc/primal_dual.hh"
#include "alloc/uniform.hh"
#include "cluster/shard.hh"
#include "cluster/sim.hh"
#include "graph/topologies.hh"
#include "metrics/performance.hh"
#include "net/comm_model.hh"
#include "net/transport.hh"
#include "util/table.hh"
#include "workload/generator.hh"

using namespace dpc;

namespace {

/** Minimal --key value argument map. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i + 1 < argc; i += 2) {
            if (std::strncmp(argv[i], "--", 2) != 0)
                fatal("expected --option, got '", argv[i], "'");
            kv_[argv[i] + 2] = argv[i + 1];
        }
        if ((argc - first) % 2 != 0)
            fatal("dangling option '", argv[argc - 1], "'");
    }

    double
    num(const std::string &key, double fallback) const
    {
        const auto it = kv_.find(key);
        return it == kv_.end() ? fallback : std::stod(it->second);
    }

    std::string
    str(const std::string &key, const std::string &fallback) const
    {
        const auto it = kv_.find(key);
        return it == kv_.end() ? fallback : it->second;
    }

  private:
    std::map<std::string, std::string> kv_;
};

Graph
buildTopology(const std::string &kind, std::size_t n,
              std::size_t chords, Rng &rng)
{
    if (kind == "ring")
        return makeRing(n);
    if (kind == "chordal")
        return makeChordalRing(n, chords, rng);
    if (kind == "er")
        return makeConnectedErdosRenyi(n, 3 * n, rng);
    if (kind == "complete")
        return makeComplete(n);
    fatal("unknown topology '", kind,
          "' (ring|chordal|er|complete)");
}

int
cmdAllocate(const Args &args)
{
    const auto n = static_cast<std::size_t>(args.num("nodes", 64));
    const double wpn = args.num("budget", 170.0);
    const auto seed =
        static_cast<std::uint64_t>(args.num("seed", 1));
    const std::string scheme = args.str("scheme", "diba");

    Rng rng(seed);
    const auto assignment = drawNpbAssignment(n, rng);
    AllocationProblem prob{utilitiesOf(assignment),
                           wpn * static_cast<double>(n)};

    AllocationResult res;
    if (scheme == "diba") {
        Rng topo_rng(seed ^ 0xbeef);
        DibaAllocator diba(buildTopology(
            args.str("topology", "ring"), n,
            static_cast<std::size_t>(args.num("chords", n / 5)),
            topo_rng));
        res = diba.allocate(prob);
    } else if (scheme == "pd") {
        PrimalDualAllocator pd;
        res = pd.allocate(prob);
    } else if (scheme == "kkt") {
        res = solveKkt(prob);
    } else if (scheme == "uniform") {
        UniformAllocator uniform;
        res = uniform.allocate(prob);
    } else if (scheme == "greedy") {
        GreedyTpwAllocator greedy;
        res = greedy.allocate(prob);
    } else {
        fatal("unknown scheme '", scheme,
              "' (diba|pd|kkt|uniform|greedy)");
    }

    // Per-benchmark cap summary.
    struct Acc
    {
        double power = 0.0;
        double anp = 0.0;
        long long count = 0;
    };
    std::map<std::string, Acc> by_bench;
    for (std::size_t i = 0; i < n; ++i) {
        auto &a = by_bench[assignment[i].name];
        a.power += res.power[i];
        a.anp += anp(*prob.utilities[i], res.power[i]);
        ++a.count;
    }
    Table table({"workload", "servers", "mean_cap_W", "mean_ANP"});
    for (const auto &[name, acc] : by_bench) {
        table.addRow(
            {name, Table::num(acc.count),
             Table::num(acc.power / (double)acc.count, 1),
             Table::num(acc.anp / (double)acc.count, 3)});
    }
    table.print(std::cout);

    const auto rep = evaluateAllocation(prob.utilities, res.power);
    const auto opt = solveKkt(prob);
    std::cout << "\nscheme=" << scheme << "  iterations="
              << res.iterations << "  converged="
              << (res.converged ? "yes" : "no") << "\ntotal "
              << Table::num(res.totalPower() / 1000.0, 2)
              << " kW of " << Table::num(prob.budget / 1000.0, 2)
              << " kW budget; SNP "
              << Table::num(rep.snp_arith, 4) << "; "
              << Table::num(100.0 * res.utility / opt.utility, 2)
              << "% of optimal utility\n";
    return 0;
}

int
cmdSimulate(const Args &args)
{
    const auto n =
        static_cast<std::size_t>(args.num("nodes", 128));
    const double wpn = args.num("budget", 172.0);
    const double duration = args.num("duration", 120.0);
    const double churn = args.num("churn", 0.0);
    const double drop = args.num("drop", 0.0);
    const auto seed =
        static_cast<std::uint64_t>(args.num("seed", 1));

    Rng rng(seed);
    auto assignment = drawNpbAssignment(n, rng);
    ClusterSimConfig cfg;
    cfg.mean_job_s = churn;
    cfg.seed = seed;
    const double nominal = wpn * static_cast<double>(n);
    ClusterSim::Options opts{.sim = cfg};
    if (drop > 0.0) {
        opts.budget_schedule = [=](double t) {
            const bool mid = t >= duration / 3.0 &&
                             t < 2.0 * duration / 3.0;
            return mid ? drop * nominal : nominal;
        };
    }
    ClusterSim sim(std::move(assignment), makeRing(n), nominal,
                   DibaAllocator::Config(), std::move(opts));

    const auto samples = sim.run(duration);
    Table table({"t_s", "budget_kW", "alloc_kW", "consumed_kW",
                 "snp"});
    const std::size_t stride =
        std::max<std::size_t>(1, samples.size() / 20);
    for (std::size_t i = 0; i < samples.size(); i += stride) {
        const auto &s = samples[i];
        table.addRow({Table::num(s.t, 0),
                      Table::num(s.budget / 1000.0, 2),
                      Table::num(s.allocated_power / 1000.0, 2),
                      Table::num(s.consumed_power / 1000.0, 2),
                      Table::num(s.snp, 4)});
    }
    table.print(std::cout);

    bool violated = false;
    for (const auto &s : samples)
        violated |= s.allocated_power >= s.budget;
    std::cout << "\nbudget violations: "
              << (violated ? "YES" : "none") << "\n";
    return 0;
}

int
cmdTopology(const Args &args)
{
    const auto n =
        static_cast<std::size_t>(args.num("nodes", 100));
    const double wpn = args.num("budget", 172.0);
    const auto seed =
        static_cast<std::uint64_t>(args.num("seed", 1));

    Rng rng(seed);
    AllocationProblem prob{utilitiesOf(drawNpbAssignment(n, rng)),
                           wpn * static_cast<double>(n)};
    const auto opt = solveKkt(prob);
    CommModel net;

    Table table({"topology", "avg_degree", "iters_to_99%",
                 "comm_ms"});
    struct Cand
    {
        std::string name;
        Graph g;
    };
    std::vector<Cand> cands;
    cands.push_back({"ring", makeRing(n)});
    cands.push_back(
        {"chordal(+n/5)", makeChordalRing(n, n / 5, rng)});
    cands.push_back({"er(3n)", makeConnectedErdosRenyi(
                                   n, 3 * n, rng)});
    for (auto &c : cands) {
        const double deg = c.g.averageDegree();
        const double round_us = net.dibaRoundUs(c.g);
        DibaAllocator diba(std::move(c.g));
        diba.reset(prob);
        std::size_t iters = 30000;
        for (std::size_t it = 1; it <= 30000; ++it) {
            diba.iterate();
            const double u =
                totalUtility(prob.utilities, diba.power());
            if (withinFractionOfOptimal(u, opt.utility, 0.99)) {
                iters = it;
                break;
            }
        }
        table.addRow({c.name, Table::num(deg, 1),
                      Table::num((long long)iters),
                      Table::num(iters * round_us / 1000.0, 1)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdShard(const Args &args)
{
    const auto n = static_cast<std::size_t>(args.num("nodes", 64));
    const double wpn = args.num("budget", 172.0);
    const auto shards =
        static_cast<std::uint32_t>(args.num("shards", 2));
    const auto rounds =
        static_cast<std::size_t>(args.num("rounds", 40));
    const auto seed =
        static_cast<std::uint64_t>(args.num("seed", 1));
    const std::string proto = args.str("proto", "udp");
    const bool show_stats = args.num("stats", 0) != 0;

    Rng rng(seed);
    AllocationProblem prob{utilitiesOf(drawNpbAssignment(n, rng)),
                           wpn * static_cast<double>(n)};
    Rng topo_rng(seed ^ 0xbeef);
    const auto topo = makeChordalRing(n, n / 5, topo_rng);
    DibaAllocator::Config cfg;
    // --threshold M: active-set threshold as a multiple of the
    // convergence tolerance; positive routes the sharded rounds
    // through the sparse wire path (suppressed/delta frames + wake
    // notifications, visible under --stats 1).
    cfg.active_threshold =
        args.num("threshold", 0.0) * cfg.tolerance;

    cluster::ShardRunOptions opt;
    opt.num_shards = shards;
    opt.rounds = rounds;
    opt.pipeline_depth =
        static_cast<std::uint32_t>(args.num("depth", 0));
    opt.retrans_ms =
        static_cast<int>(args.num("retrans-ms", opt.retrans_ms));
    opt.recover = args.num("recover", 0) != 0;
    opt.deadline_ms =
        static_cast<int>(args.num("deadline-ms", opt.deadline_ms));
    // Fault injection: --kill-shard S@R (SIGKILL shard S at the
    // top of round R), --stall-shard S@R:D (SIGSTOP there, broker
    // SIGCONTs after D ms).
    const std::string kill = args.str("kill-shard", "");
    if (!kill.empty()) {
        unsigned s = 0;
        unsigned long long r = 0;
        if (std::sscanf(kill.c_str(), "%u@%llu", &s, &r) != 2)
            fatal("--kill-shard wants S@R, got '", kill, "'");
        opt.faults.killAt(s, r);
    }
    const std::string stall = args.str("stall-shard", "");
    if (!stall.empty()) {
        unsigned s = 0;
        unsigned long long r = 0;
        int d = 0;
        if (std::sscanf(stall.c_str(), "%u@%llu:%d", &s, &r,
                        &d) != 3)
            fatal("--stall-shard wants S@R:D_MS, got '", stall,
                  "'");
        opt.faults.stallAt(s, r, d);
    }
    if (proto == "udp")
        opt.proto = net::SocketTransport::Proto::Udp;
    else if (proto == "tcp")
        opt.proto = net::SocketTransport::Proto::Tcp;
    else
        fatal("unknown proto '", proto, "' (udp|tcp)");

    const auto run = cluster::runShardedDiba(prob, topo, cfg, opt);
    if (!run.ok) {
        std::cerr << "shard run failed: " << run.error << "\n";
        return 1;
    }

    Table table({"shard", "nodes_owned", "ids"});
    for (std::uint32_t s = 0; s < shards; ++s) {
        const auto lo = run.plan.block_begin[s];
        const auto hi = run.plan.block_end[s];
        std::string span = "[";
        span += std::to_string(lo);
        span += ", ";
        span += std::to_string(hi);
        span += ")";
        table.addRow({Table::num((long long)s),
                      Table::num((long long)(hi - lo)),
                      std::move(span)});
    }
    table.print(std::cout);

    if (show_stats) {
        const double rr = static_cast<double>(run.rounds_run);
        Table st({"metric", "total", "per_round"});
        const auto row = [&](const char *name, std::uint64_t v) {
            st.addRow({name, Table::num((long long)v),
                       Table::num((double)v / rr, 2)});
        };
        row("frames_sent", run.wire_frames);
        row("bytes_sent", run.wire_bytes);
        row("frames_received", run.frames_received);
        row("bytes_received", run.bytes_received);
        row("retransmits", run.retransmits);
        row("retrans_bytes", run.retrans_bytes);
        row("duplicates", run.duplicates);
        row("edges_suppressed", run.edges_suppressed);
        row("suppressed_frames", run.suppressed_frames);
        row("delta_frames", run.delta_frames);
        row("wake_messages", run.wake_messages);
        st.print(std::cout);

        Table hist({"edges_per_frame", "frames"});
        for (std::size_t b = 0;
             b < run.edges_per_frame_hist.size(); ++b) {
            if (run.edges_per_frame_hist[b] == 0)
                continue;
            std::string span = "[";
            span += std::to_string(1u << b);
            span += ", ";
            span += std::to_string(1u << (b + 1));
            span += ")";
            hist.addRow({std::move(span),
                         Table::num((long long)run
                                        .edges_per_frame_hist[b])});
        }
        hist.print(std::cout);

        Table ph({"phase", "seconds_total"});
        ph.addRow({"send", Table::num(run.phase_send_s, 3)});
        ph.addRow(
            {"interior", Table::num(run.phase_interior_s, 3)});
        ph.addRow({"drain", Table::num(run.phase_drain_s, 3)});
        ph.addRow(
            {"boundary", Table::num(run.phase_boundary_s, 3)});
        ph.print(std::cout);
    }

    // The whole point of the exercise: the sharded trajectory IS
    // the single-process one, bit for bit.  A positive threshold
    // routes the sharded rounds through the sparse path, whose pin
    // is the sparse single-process engine (plain iterate());
    // threshold 0 pins against the dense loopback round.  After a
    // recovery the reference suffers the identical surgery at the
    // identical round boundary and the survivors must still match.
    const bool sparse_ref = cfg.active_threshold > 0.0;
    DibaAllocator ref(topo, cfg);
    ref.reset(prob);
    net::LoopbackTransport loopback;
    const auto ref_round = [&] {
        if (sparse_ref)
            ref.iterate();
        else
            ref.stepWithTransport(loopback);
    };
    const std::size_t pre =
        run.recoveries > 0
            ? static_cast<std::size_t>(run.recovery_round)
            : rounds;
    for (std::size_t r = 0; r < pre; ++r)
        ref_round();
    if (run.recoveries > 0) {
        cluster::applyShardRecovery(ref, run.plan, run.dead_mask,
                                    run.epoch);
        for (std::size_t r = pre; r < rounds; ++r)
            ref_round();
    }
    std::size_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if ((run.dead_mask >> run.plan.owner_of[i]) & 1)
            continue; // dead block: zeroed by the surgery
        bad += std::memcmp(&ref.power()[i], &run.power[i],
                           sizeof(double)) != 0;
    }

    if (run.recoveries > 0)
        std::cout << "\nrecovered from dead_mask="
                  << run.dead_mask << ": epoch " << run.epoch
                  << ", resumed from round " << run.recovery_round
                  << " (quiesced at " << run.quiesce_round
                  << "), recovery took "
                  << Table::num(run.recovery_s * 1000.0, 1)
                  << " ms, availability "
                  << Table::num(run.availability, 4) << "\n";

    std::cout << "\n"
              << shards << " " << proto << " shard processes, "
              << run.rounds_run << " rounds: cut "
              << run.plan.cut_edges << "/" << run.plan.total_edges
              << " overlay edges ("
              << Table::num(100.0 * run.plan.cutFraction(), 1)
              << "%), "
              << Table::num((double)run.wire_bytes /
                                (double)rounds,
                            0)
              << " wire B/round, " << run.retransmits
              << " retransmits\nbitwise parity vs single process: "
              << (bad == 0 ? "OK" : "FAIL") << "\n";
    return bad == 0 ? 0 : 1;
}

void
usage()
{
    std::cout
        << "usage: dpc <allocate|simulate|topology> [--opt val]...\n"
        << "  allocate: --nodes N --budget W/node --scheme "
           "diba|pd|kkt|uniform|greedy --topology "
           "ring|chordal|er|complete --seed X\n"
        << "  simulate: --nodes N --budget W/node --duration S "
           "--churn MEAN_S --drop FRAC --seed X\n"
        << "  topology: --nodes N --budget W/node --seed X\n"
        << "  shard:    --nodes N --shards S --rounds R "
           "--proto udp|tcp --budget W/node --seed X\n"
           "            [--stats 1] [--depth D] "
           "[--retrans-ms MS] [--threshold M]\n"
           "            [--kill-shard S@R] [--stall-shard S@R:D_MS]"
           " [--recover 0|1] [--deadline-ms MS]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    const Args args(argc, argv, 2);
    if (cmd == "allocate")
        return cmdAllocate(args);
    if (cmd == "simulate")
        return cmdSimulate(args);
    if (cmd == "topology")
        return cmdTopology(args);
    if (cmd == "shard")
        return cmdShard(args);
    usage();
    return 1;
}
