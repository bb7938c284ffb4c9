/**
 * @file
 * A plain per-node DiBA reference for the round-engine tests: the
 * paper's uniform start, Metropolis diffusion over the Graph's
 * neighbour lists, and a curvature-scaled barrier step that reads
 * each utility only through the UtilityFunction interface (its
 * derivative, its box and a finite-differenced curvature),
 * followed by the engine's barrier annealing.  No SoA mirror, no
 * fused or blocked loops: what DibaAllocator's kernels compute,
 * written the slow way, so the tests can hold the engine to it.
 */

#ifndef DPC_TESTS_ALLOC_REFERENCE_ROUND_HH
#define DPC_TESTS_ALLOC_REFERENCE_ROUND_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc/diba.hh"
#include "alloc/problem.hh"
#include "alloc/round_kernel.hh"
#include "graph/graph.hh"
#include "model/utility.hh"
#include "util/stats.hh"

namespace dpc {
namespace test {

/** Per-node DiBA state of the reference. */
struct ReferenceState
{
    std::vector<double> p, e, eta;
};

/** The paper's uniform start: caps at (1 - slack_frac) P/n clamped
 * into the boxes, equal estimates (sum p - P)/n, barriers at
 * eta_initial. */
inline ReferenceState
referenceStart(const AllocationProblem &prob,
               const DibaAllocator::Config &cfg)
{
    ReferenceState s;
    s.p = uniformStart(prob, cfg.slack_frac);
    const double n = static_cast<double>(prob.size());
    s.e.assign(prob.size(), (sum(s.p) - prob.budget) / n);
    s.eta.assign(prob.size(), cfg.eta_initial);
    return s;
}

/** Curvature-scaled barrier gradient step for one node, with the
 * utility's curvature finite-differenced over +-0.5 W (the emergency
 * shed when its slack is exhausted).  Returns dp, already applied to
 * p_i and e_i. */
inline double
referenceStep(const UtilityFunction &u, const DibaAllocator::Config &cfg,
              double &p_i, double &e_i, double eta)
{
    const double p = p_i;
    if (e_i >= 0.0)
        return emergencyShedStep(p_i, e_i, u.minPower());
    const double e_eff = std::min(e_i, -kBarrierFloor);
    // Gradient of R_i = r_i(p) + eta * log(-e_i) along a joint
    // (p_i, e_i) move.
    const double grad = u.derivative(p) + eta / e_eff;
    const double h = 0.5;
    const double x1 = u.clampPower(p + h);
    const double x0 = u.clampPower(p - h);
    double curv = eta / (e_eff * e_eff);
    if (x1 > x0)
        curv += std::fabs(u.derivative(x1) - u.derivative(x0)) /
                (x1 - x0);
    double dp = cfg.damping * grad / std::max(curv, kCurvFloor);
    // Backtracking into the action space: per-round move limit,
    // keep e_i strictly negative, stay in the power box.
    dp = std::clamp(dp, -cfg.max_move, cfg.max_move);
    if (dp > 0.0)
        dp = std::min(dp, (cfg.barrier_keep - 1.0) * e_i);
    dp = std::clamp(dp, u.minPower() - p, u.maxPower() - p);
    p_i = p + dp;
    e_i += dp;
    return dp;
}

/** One synchronized round on every node: Metropolis diffusion of
 * the estimates (w_ij = 1 / (1 + max(deg_i, deg_j))) from the
 * pre-round snapshot, then each node's step and annealing.  Returns
 * the largest |dp|. */
inline double
referenceRound(const Graph &g, const std::vector<UtilityPtr> &us,
               const DibaAllocator::Config &cfg, ReferenceState &s)
{
    const std::vector<double> snap = s.e;
    for (std::size_t i = 0; i < snap.size(); ++i) {
        double acc = 0.0;
        for (const std::uint32_t j : g.neighbors(i)) {
            const double w =
                1.0 / (1.0 + static_cast<double>(
                                 std::max(g.degree(i), g.degree(j))));
            acc += w * (snap[j] - snap[i]);
        }
        s.e[i] = snap[i] + acc;
    }
    RoundKernelParams k;
    k.anneal_gate = cfg.anneal_gate;
    k.reheat_gate = cfg.reheat_gate;
    k.eta_floor = cfg.eta;
    k.eta_initial = cfg.eta_initial;
    k.eta_decay = cfg.eta_decay;
    k.eta_reheat = cfg.eta_reheat;
    double max_dp = 0.0;
    for (std::size_t i = 0; i < snap.size(); ++i) {
        const double moved =
            std::fabs(referenceStep(*us[i], cfg, s.p[i], s.e[i],
                                    s.eta[i]));
        s.eta[i] = annealEta(s.eta[i], moved, k);
        max_dp = std::max(max_dp, moved);
    }
    return max_dp;
}

} // namespace test
} // namespace dpc

#endif // DPC_TESTS_ALLOC_REFERENCE_ROUND_HH
