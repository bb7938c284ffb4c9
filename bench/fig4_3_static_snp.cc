/**
 * @file
 * Fig. 4.3 reproduction: SNP of 1000 servers under total budgets
 * 166..186 kW for uniform allocation, the primal-dual scheme, DiBA
 * and the centralized optimum.  The paper reports PD/DiBA winning
 * by ~8-23% over uniform with the gap closing as the budget grows.
 */

#include "bench/common.hh"

using namespace dpc;

int
main()
{
    bench::banner("Figure 4.3",
                  "SNP of N=1000 servers vs. total power budget");

    const std::size_t n = 1000;
    Table table({"budget_kW", "uniform", "primal-dual", "diba",
                 "centralized-opt", "diba_gain_%"});

    double gain_lo = 0.0, gain_hi = 0.0;
    for (double wpn = 166.0; wpn <= 186.0 + 1e-9; wpn += 4.0) {
        const auto prob = bench::npbProblem(n, wpn, 17);
        const auto oracle = solveKkt(prob);

        UniformAllocator uniform;
        const auto r_uni = uniform.allocate(prob);

        PrimalDualAllocator pd;
        const auto r_pd = pd.allocate(prob);

        DibaAllocator diba(makeRing(n), bench::uniformStart());
        const auto r_diba = diba.allocate(prob);

        const double s_uni = bench::snpOf(prob, r_uni.power);
        const double s_pd = bench::snpOf(prob, r_pd.power);
        const double s_diba = bench::snpOf(prob, r_diba.power);
        const double s_opt = bench::snpOf(prob, oracle.power);
        const double gain = (s_diba / s_uni - 1.0) * 100.0;
        if (wpn == 166.0)
            gain_lo = gain;
        gain_hi = gain;

        table.addRow({Table::num(wpn * n / 1000.0, 0),
                      Table::num(s_uni, 4), Table::num(s_pd, 4),
                      Table::num(s_diba, 4), Table::num(s_opt, 4),
                      Table::num(gain, 1)});
    }
    table.print(std::cout);
    std::cout << "\nPaper: DiBA within 99% of the centralized "
                 "optimum; gain over uniform shrinks from ~22.6% "
                 "to ~8.2% as the budget loosens.\n"
              << "Measured: gain shrinks from "
              << Table::num(gain_lo, 1) << "% to "
              << Table::num(gain_hi, 1) << "%.\n";
    return 0;
}
