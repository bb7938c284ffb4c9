/**
 * @file
 * Fig. 4.10 reproduction: 100 connected Erdos-Renyi random graphs
 * on N=100 nodes with varying edge counts; for each, the number of
 * DiBA iterations to reach 99% of the optimal utility, plus the
 * 3rd-order polynomial regression of iterations on the average
 * degree.  The paper's shape: convergence time falls steeply with
 * the average connectivity degree.
 */

#include "bench/common.hh"
#include "util/fit.hh"
#include "util/stats.hh"

using namespace dpc;

int
main()
{
    bench::banner("Figure 4.10",
                  "DiBA iterations to 99% optimal vs. average "
                  "degree over 100 connected G(n, m) samples, "
                  "N=100");

    const std::size_t n = 100;
    Rng rng(43);
    const auto prob = bench::npbProblem(n, 172.0, 47);
    const auto oracle = solveKkt(prob);

    std::vector<double> degrees, iters;
    for (int sample = 0; sample < 100; ++sample) {
        // Edge counts from barely-connected (tree + epsilon) to
        // dense; below ~n ln(n)/2 edges a raw G(n, m) draw is
        // essentially never connected, so sparse samples come from
        // the spanning-tree-based connected generator.
        const std::size_t m =
            110 + static_cast<std::size_t>(rng.uniform(0.0, 890.0));
        auto g = m >= 260 ? makeConnectedErdosRenyi(n, m, rng)
                          : makeRandomConnectedGraph(n, m, rng);
        const double degree = g.averageDegree();
        DibaAllocator diba(std::move(g), bench::uniformStart());
        const auto its = bench::dibaIterationsToFraction(
            diba, prob, oracle.utility, 0.99);
        degrees.push_back(degree);
        iters.push_back(static_cast<double>(its));
    }

    // Bucketed view of the raw samples.
    Table table({"avg_degree_bucket", "samples", "mean_iters",
                 "min_iters", "max_iters"});
    for (double lo = 2.0; lo < 20.0; lo += 3.0) {
        std::vector<double> in_bucket;
        for (std::size_t i = 0; i < degrees.size(); ++i)
            if (degrees[i] >= lo && degrees[i] < lo + 3.0)
                in_bucket.push_back(iters[i]);
        if (in_bucket.empty())
            continue;
        table.addRow(
            {Table::num(lo, 0) + "-" + Table::num(lo + 3.0, 0),
             Table::num((long long)in_bucket.size()),
             Table::num(mean(in_bucket), 1),
             Table::num(minElement(in_bucket), 0),
             Table::num(maxElement(in_bucket), 0)});
    }
    table.print(std::cout);

    const auto poly = polyfit(degrees, iters, 3);
    std::cout << "\n3rd-order regression (paper's red line): "
              << "iters = " << Table::num(poly[0], 2) << " + "
              << Table::num(poly[1], 2) << " d + "
              << Table::num(poly[2], 3) << " d^2 + "
              << Table::num(poly[3], 4) << " d^3\n";

    // Shape check: strong negative correlation.
    const double lo_mean = [&] {
        std::vector<double> xs;
        for (std::size_t i = 0; i < degrees.size(); ++i)
            if (degrees[i] < 5.0)
                xs.push_back(iters[i]);
        return xs.empty() ? 0.0 : mean(xs);
    }();
    const double hi_mean = [&] {
        std::vector<double> xs;
        for (std::size_t i = 0; i < degrees.size(); ++i)
            if (degrees[i] > 12.0)
                xs.push_back(iters[i]);
        return xs.empty() ? 0.0 : mean(xs);
    }();
    std::cout << "Mean iterations, degree<5: "
              << Table::num(lo_mean, 1) << "; degree>12: "
              << Table::num(hi_mean, 1)
              << " (paper: strong inverse correlation).\n";
    return 0;
}
