/**
 * @file
 * Ablation of DiBA's design choices (the DESIGN.md call-outs):
 *
 *  - barrier annealing (the interior-point eta schedule) vs. a
 *    fixed barrier at the floor or at the initial weight;
 *  - gated gossip (relative deadband) vs. full exchange;
 *  - step damping;
 *  - synchronous rounds vs. asynchronous gossip ticks (normalized
 *    to the same per-node work).
 *
 * Reported per configuration: synchronous-round equivalents to
 * reach 99% of the oracle utility, the utility fraction reached at
 * a fixed horizon, and the final budget slack.
 */

#include "bench/common.hh"
#include "util/stats.hh"

using namespace dpc;

namespace {

struct Row
{
    std::string label;
    std::size_t rounds_to_99;
    double frac_at_horizon;
    double slack_w;
};

constexpr std::size_t kHorizon = 6000;

Row
runSync(const std::string &label, DibaAllocator::Config cfg,
        const AllocationProblem &prob, double opt)
{
    DibaAllocator diba(makeRing(prob.size()), cfg);
    diba.reset(prob);
    Row row{label, kHorizon, 0.0, 0.0};
    for (std::size_t it = 1; it <= kHorizon; ++it) {
        diba.iterate();
        if (row.rounds_to_99 == kHorizon) {
            const double u =
                totalUtility(prob.utilities, diba.power());
            if (withinFractionOfOptimal(u, opt, 0.99))
                row.rounds_to_99 = it;
        }
    }
    row.frac_at_horizon =
        totalUtility(prob.utilities, diba.power()) / opt;
    row.slack_w = prob.budget - diba.totalPower();
    return row;
}

Row
runAsync(const std::string &label, const AllocationProblem &prob,
         double opt)
{
    DibaAllocator diba(makeRing(prob.size()), bench::uniformStart());
    diba.reset(prob);
    Rng rng(99);
    Row row{label, kHorizon, 0.0, 0.0};
    const std::size_t n = prob.size();
    for (std::size_t round = 1; round <= kHorizon; ++round) {
        // One synchronous round of work ~ n/2 edge activations on
        // a ring (each sync round touches every node once).
        for (std::size_t t = 0; t < n / 2; ++t)
            diba.gossipTick(rng);
        if (row.rounds_to_99 == kHorizon) {
            const double u =
                totalUtility(prob.utilities, diba.power());
            if (withinFractionOfOptimal(u, opt, 0.99))
                row.rounds_to_99 = round;
        }
    }
    row.frac_at_horizon =
        totalUtility(prob.utilities, diba.power()) / opt;
    row.slack_w = prob.budget - diba.totalPower();
    return row;
}

} // namespace

int
main()
{
    bench::banner("DiBA design ablation",
                  "Ring N=200, P=172 W/node; 99%-of-oracle rounds "
                  "(horizon 6000) per configuration");

    const auto prob = bench::npbProblem(200, 172.0, 77);
    const double opt = solveKkt(prob).utility;

    std::vector<Row> rows;

    const DibaAllocator::Config base = bench::uniformStart();
    rows.push_back(runSync("default (annealed barrier)", base,
                           prob, opt));

    auto fixed_lo = base;
    fixed_lo.eta_initial = fixed_lo.eta;
    rows.push_back(runSync("fixed barrier at floor (no anneal)",
                           fixed_lo, prob, opt));

    auto fixed_hi = base;
    fixed_hi.eta = fixed_hi.eta_initial;
    rows.push_back(runSync("fixed barrier at initial (loose)",
                           fixed_hi, prob, opt));

    auto gated = base;
    gated.deadband = 0.05;
    rows.push_back(runSync("gated gossip (5% deadband)", gated,
                           prob, opt));

    auto heavy = base;
    heavy.damping = 0.2;
    rows.push_back(runSync("damping 0.2 (over-damped)", heavy,
                           prob, opt));

    auto light = base;
    light.damping = 0.95;
    rows.push_back(runSync("damping 0.95 (aggressive)", light,
                           prob, opt));

    rows.push_back(runAsync("asynchronous gossip (default cfg)",
                            prob, opt));

    Table table({"configuration", "rounds_to_99%",
                 "frac_at_horizon", "final_slack_W"});
    for (const auto &r : rows) {
        table.addRow({r.label,
                      r.rounds_to_99 >= kHorizon
                          ? ">" + Table::num((long long)kHorizon)
                          : Table::num((long long)r.rounds_to_99),
                      Table::num(r.frac_at_horizon, 4),
                      Table::num(r.slack_w, 1)});
    }
    table.print(std::cout);

    std::cout
        << "\nReading: the barrier weight is the transport pipe -- "
           "fixing it at the loose initial value never tightens "
           "onto the budget (large final slack, capped utility), "
           "while the floor value alone can suffice when it "
           "already provides enough per-node slack; the annealed "
           "schedule hedges across floors and initial imbalances. "
           "The deadband trades convergence speed for fewer "
           "exchanges; damping matters little across 0.2-0.95; "
           "asynchronous gossip matches the synchronized rounds "
           "at equal per-node work -- no NTP barrier needed.\n";
    return 0;
}
