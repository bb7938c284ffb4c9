#include "alloc/primal_dual.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "alloc/centralized.hh"
#include "metrics/performance.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace dpc {

double
PrimalDualAllocator::respondRange(double lambda,
                                  std::vector<double> &p,
                                  std::size_t begin,
                                  std::size_t end) const
{
    // Devirtualized fast path: when every utility is quadratic the
    // best response has the closed form clamp((lambda - b) / 2c),
    // so the sweep reads flat coefficient arrays instead of making
    // a virtual call per node (same arithmetic as
    // QuadraticUtility::bestResponse, hence identical results).
    double partial = 0.0;
    if (quad_) {
        for (std::size_t i = begin; i < end; ++i) {
            p[i] = qc_[i] == 0.0
                       ? (qb_[i] >= lambda ? qmax_[i] : qmin_[i])
                       : std::clamp((lambda - qb_[i]) /
                                        (2.0 * qc_[i]),
                                    qmin_[i], qmax_[i]);
            partial += p[i];
        }
    } else {
        for (std::size_t i = begin; i < end; ++i) {
            p[i] = problem().utilities[i]->bestResponse(lambda);
            partial += p[i];
        }
    }
    return partial;
}

double
PrimalDualAllocator::respond(double lambda, std::vector<double> &p)
{
    const std::size_t n = p.size();
    if (!pool_)
        return respondRange(lambda, p, 0, n);
    chunk_sums_.assign(pool_->numChunks(), 0.0);
    pool_->parallelFor(
        n, [&](std::size_t c, std::size_t b, std::size_t e) {
            chunk_sums_[c] = respondRange(lambda, p, b, e);
        });
    double total = 0.0;
    for (double s : chunk_sums_) // chunk order: deterministic
        total += s;
    return total;
}

void
PrimalDualAllocator::doReset()
{
    const AllocationProblem &prob = problem();
    const std::size_t n = prob.size();
    trace_.clear();
    if (cfg_.num_threads >= 1 &&
        (!pool_ || pool_->numChunks() != cfg_.num_threads))
        pool_ = ThreadPool::acquire(cfg_.num_threads);

    quad_ = true;
    qb_.clear();
    qc_.clear();
    qmin_.clear();
    qmax_.clear();
    qb_.reserve(n);
    qc_.reserve(n);
    qmin_.reserve(n);
    qmax_.reserve(n);
    for (const auto &u : prob.utilities) {
        const auto *q = u->quadratic();
        if (q == nullptr) {
            quad_ = false;
            break;
        }
        qb_.push_back(q->coeffB());
        qc_.push_back(q->coeffC());
        qmin_.push_back(q->minPower());
        qmax_.push_back(q->maxPower());
    }

    power_.assign(n, 0.0);
    lambda_ = 0.0;
    const double total = respond(lambda_, power_);
    trace_.push_back(totalUtility(
        prob.utilities, projectToFeasible(prob, power_)));
    iterations_ = 1;
    converged_ = false;
    slack_ = false;

    if (total <= prob.budget) {
        // Budget slack: the price stays at zero and everyone keeps
        // the unconstrained peak.
        converged_ = true;
        slack_ = true;
        return;
    }

    // Initial step from the aggregate price-response slope over
    // the whole useful price range (a microscopic probe would see
    // only the box-clamped, flat response), damped by cfg_.step;
    // afterwards a secant estimate keeps the fixed-point iteration
    // well conditioned across problem scales.
    double lambda_probe = 0.0;
    for (const auto &u : prob.utilities) {
        lambda_probe = std::max(
            lambda_probe, u->derivative(u->minPower()));
    }
    lambda_probe = std::max(lambda_probe, 1e-9);
    std::vector<double> scratch(n);
    const double slope0 =
        (respond(lambda_probe, scratch) - total) / lambda_probe;
    step_size_ = cfg_.step / std::max(-slope0, 1e-9);

    prev_lambda_ = lambda_;
    prev_violation_ = total - prob.budget;
    violation_ = prev_violation_;
    lambda_lo_ = 0.0;
    lambda_hi_ = -1.0; // unknown until first overshoot
    stall_ref_ = std::fabs(prev_violation_);
}

void
PrimalDualAllocator::warmStart(const AllocationResult &prev,
                               double budget_delta)
{
    (void)prev; // the dual price carries the warm state
    DPC_ASSERT(iterations_ > 0, "warmStart() before reset()");
    const double new_budget = problem_.budget + budget_delta;
    DPC_ASSERT(new_budget > 0.0, "non-positive budget after delta");
    problem_.budget = new_budget;

    const double total = respond(lambda_, power_);
    violation_ = total - new_budget;
    if (violation_ > 0.0 && step_size_ <= 0.0) {
        // The previous solve ended slack at lambda = 0 with no
        // step-size calibration to reuse; the cold path does it.
        reset(problem_);
        return;
    }
    trace_.clear();
    trace_.push_back(totalUtility(
        problem().utilities, projectToFeasible(problem(), power_)));
    iterations_ = 1;
    converged_ = false;
    slack_ = false;
    if (lambda_ == 0.0 && violation_ <= 0.0) {
        converged_ = true;
        slack_ = true;
        return;
    }
    // Restart the bracket around the carried-over price.
    if (violation_ > 0.0) {
        lambda_lo_ = lambda_;
        lambda_hi_ = -1.0;
    } else {
        lambda_lo_ = 0.0;
        lambda_hi_ = lambda_;
    }
    prev_lambda_ = lambda_;
    prev_violation_ = violation_;
    stall_ref_ = std::fabs(violation_);
}

double
PrimalDualAllocator::step(Rng &rng)
{
    (void)rng; // the price iteration is deterministic
    DPC_ASSERT(iterations_ > 0, "step() before reset()");
    if (converged_)
        return 0.0;
    const AllocationProblem &prob = problem();

    // Eq. 4.5 with the violation written as sum(p) - P.  The
    // fixed-step subgradient rule stalls on the flat, box-clipped
    // regions of the aggregate response, so the price falls back
    // to bisection of the known bracket whenever the candidate
    // leaves it or the violation stops shrinking.
    double candidate =
        std::max(0.0, lambda_ + step_size_ * prev_violation_);
    const bool bracketed = lambda_hi_ > 0.0;
    if (bracketed &&
        (candidate <= lambda_lo_ || candidate >= lambda_hi_ ||
         std::fabs(prev_violation_) >= 0.7 * stall_ref_))
        candidate = 0.5 * (lambda_lo_ + lambda_hi_);
    lambda_ = candidate;
    const double total = respond(lambda_, power_);
    violation_ = total - prob.budget;
    stall_ref_ = std::fabs(prev_violation_);
    if (violation_ > 0.0)
        lambda_lo_ = std::max(lambda_lo_, lambda_);
    else
        lambda_hi_ = lambda_hi_ < 0.0
                         ? lambda_
                         : std::min(lambda_hi_, lambda_);
    ++iterations_;
    trace_.push_back(totalUtility(
        prob.utilities, projectToFeasible(prob, power_)));

    const double rel = std::fabs(violation_) / prob.budget;
    if (rel < cfg_.tolerance ||
        (lambda_ == 0.0 && violation_ <= 0.0) ||
        (lambda_hi_ > 0.0 &&
         lambda_hi_ - lambda_lo_ <
             cfg_.tolerance * std::max(lambda_hi_, 1e-12))) {
        converged_ = true;
        return rel;
    }

    // Secant slope update.
    const double dl = lambda_ - prev_lambda_;
    const double dv = violation_ - prev_violation_;
    if (dl != 0.0 && dv / dl < -1e-12)
        step_size_ = cfg_.step / (-dv / dl);
    prev_lambda_ = lambda_;
    prev_violation_ = violation_;
    return rel;
}

AllocationResult
PrimalDualAllocator::result() const
{
    AllocationResult res;
    res.iterations = iterations_;
    res.converged = converged_;
    // The slack case reports the raw unconstrained peak (already
    // under budget); every other snapshot is the primal iterate
    // projected back into the budget, exactly what the classic
    // one-shot solver reported at its exit.
    if (slack_)
        res.power = power_;
    else
        res.power = projectToFeasible(problem(), power_);
    res.utility = totalUtility(problem().utilities, res.power);
    return res;
}

} // namespace dpc
