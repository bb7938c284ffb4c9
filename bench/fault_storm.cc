/**
 * @file
 * Fault storm sweep: how much transport loss and node churn can
 * DiBA absorb before its allocation quality degrades?
 *
 * Grid: pair-drop rate 0%..50% x churn off / on (5 crashes + 3
 * rejoins drawn by FaultPlan::randomChurn).  Every cell drives its
 * own DibaAllocator through a FaultSession, which audits the
 * InvariantChecker invariants after every round.  Loss-only cells
 * draw i.i.d. pair drops; the churn cells add the lossy channel's
 * stale-delivery tail.  Every cell then scores its surviving
 * allocation against the KKT optimum of the survivors' problem.
 *
 * Emits BENCH_fault_storm.json (one record per cell) for
 * machine-readable tracking, next to the human-readable table.
 * Everything is fixed-seed: rerunning the binary reproduces every
 * trajectory bit for bit.
 */

#include <cmath>

#include "bench/common.hh"
#include "fault/session.hh"
#include "tools/bench_json.hh"
#include "util/stats.hh"

using namespace dpc;

namespace {

struct CellResult
{
    std::size_t active = 0;
    double util_frac = 0.0;
    double total_power = 0.0;
    double observed_loss = 0.0;
    double worst_residual = 0.0;
    std::size_t quiet_rounds = 0;
    std::size_t rounds = 0;
};

CellResult
runCell(const AllocationProblem &prob, double drop, bool churn)
{
    const std::size_t n = prob.size();
    const std::size_t rounds = 800;
    Rng topo_rng(7);
    // The paper's uniform start: a seeded one begins at the
    // equilibrium, so loss would have nothing left to carry.
    DibaAllocator diba(makeChordalRing(n, 30, topo_rng),
                       bench::uniformStart());
    diba.reset(prob);

    FaultPlan plan =
        churn ? FaultPlan::randomChurn(n, 5, 3,
                                       static_cast<double>(rounds),
                                       0x57a9 + n)
              : FaultPlan();
    LossyChannel::Config loss;
    loss.drop_rate = drop;
    if (churn) {
        // A staleness tail rides along: 10% of delivered pairs
        // arrive up to 3 rounds late.
        loss.delay_rate = 0.1;
        loss.max_lag = 3;
    }
    plan.loss(loss).seed(0x5709a + std::lround(drop * 100.0));

    FaultSession session(diba, plan);
    CellResult cell;
    cell.quiet_rounds = session.run(rounds);
    cell.rounds = rounds;

    AllocationProblem::Builder reduced;
    std::vector<double> live;
    for (std::size_t i = 0; i < n; ++i) {
        if (diba.isActive(i)) {
            reduced.add(prob.utilities[i]);
            live.push_back(diba.power()[i]);
        }
    }
    const auto sub = reduced.budget(prob.budget).build();
    const auto opt = solveKkt(sub);
    cell.active = diba.numActive();
    cell.util_frac =
        totalUtility(sub.utilities, live) / opt.utility;
    cell.total_power = diba.totalPower();
    cell.observed_loss = session.channel().lossRate();
    cell.worst_residual = session.checker().worstResidual();
    return cell;
}

} // namespace

int
main()
{
    bench::banner(
        "Fault storm sweep",
        "N=300 chordal ring; pair-drop 0..50%, with and without "
        "5-crash/3-rejoin churn (+ stale tail); 800 audited rounds "
        "per cell");

    const std::size_t n = 300;
    const auto prob = bench::npbProblem(n, 172.0, 97);

    Table table({"drop_pct", "churn", "active", "util_frac_of_opt",
                 "total_kW", "observed_loss_pct",
                 "worst_residual_W", "quiet_rounds"});
    tools::BenchJsonWriter json;

    for (const double drop : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
        for (const bool churn : {false, true}) {
            const CellResult cell = runCell(prob, drop, churn);
            table.addRow(
                {Table::num(100.0 * drop, 0),
                 std::string(churn ? "yes" : "no"),
                 Table::num((long long)cell.active),
                 Table::num(cell.util_frac, 4),
                 Table::num(cell.total_power / 1000.0, 2),
                 Table::num(100.0 * cell.observed_loss, 2),
                 Table::num(cell.worst_residual, 10),
                 Table::num((long long)cell.quiet_rounds)});
            json.record()
                .field("bench", "fault_storm")
                .field("n", n)
                .field("drop_rate", drop)
                .field("churn", churn ? "on" : "off")
                .field("active", cell.active)
                .field("util_frac_of_opt", cell.util_frac)
                .field("total_power_w", cell.total_power)
                .field("observed_loss", cell.observed_loss)
                .field("worst_residual_w", cell.worst_residual)
                .field("quiet_rounds", cell.quiet_rounds)
                .field("rounds", cell.rounds);
        }
    }
    table.print(std::cout);
    json.save("BENCH_fault_storm.json");

    std::cout << "\nEvery cell passed the per-round invariant "
                 "audit (budget safety, mask consistency, "
                 "estimate-sum conservation); results saved to "
                 "BENCH_fault_storm.json\n";
    return 0;
}
