/**
 * @file
 * Throughput-vs-power utility functions r_i(p_i).
 *
 * Every power-budgeting algorithm in the library optimizes
 * sum_i r_i(p_i) subject to sum_i p_i <= P with box constraints
 * p_i in [pMin, pMax] (Eqs. 4.1-4.3).  The paper fits concave
 * quadratics to measured throughput at the discrete DVFS levels
 * (Fig. 4.2, Eq. 3.7); `QuadraticUtility` is that model, and
 * `PiecewiseLinearUtility` interpolates raw samples directly.
 */

#ifndef DPC_MODEL_UTILITY_HH
#define DPC_MODEL_UTILITY_HH

#include <memory>
#include <vector>

namespace dpc {

class QuadraticUtility;

/**
 * Abstract concave utility (throughput) as a function of the power
 * cap, defined on the box [minPower, maxPower].
 */
class UtilityFunction
{
  public:
    virtual ~UtilityFunction() = default;

    /** Throughput at power cap p (p is clamped to the box). */
    virtual double value(double p) const = 0;

    /** d(throughput)/d(power) at p (clamped, one-sided at ends). */
    virtual double derivative(double p) const = 0;

    /** Lowest admissible power cap (idle / lowest DVFS). */
    virtual double minPower() const = 0;

    /** Highest admissible power cap (max DVFS). */
    virtual double maxPower() const = 0;

    /**
     * argmax_{p in box} value(p) - lambda * p: the node-local "best
     * response" to a shadow price lambda (Eq. 4.6).  The default
     * implementation bisects the concave first-order condition.
     */
    virtual double bestResponse(double lambda) const;

    /** Power cap attaining the maximum value over the box. */
    double peakPower() const;

    /** Maximum attainable throughput over the box (>0 expected). */
    double peakValue() const;

    /** Clamp a power value into [minPower, maxPower]. */
    double clampPower(double p) const;

    /** This utility as a QuadraticUtility, or null: one virtual
     * call where the allocators' closed-form paths would otherwise
     * pay a dynamic_cast per node. */
    virtual const QuadraticUtility *quadratic() const { return nullptr; }
};

/**
 * Concave quadratic utility r(p) = a + b p + c p^2 with c <= 0
 * restricted to [p_min, p_max] (the paper's Eq. 3.7 / Fig. 4.2
 * "interpolate a quadratic throughput function").
 */
class QuadraticUtility : public UtilityFunction
{
  public:
    /** Construct from explicit coefficients; requires c <= 0. */
    QuadraticUtility(double a, double b, double c, double p_min,
                     double p_max);

    /**
     * Construct from a normalized shape: throughput rises from
     * `r0 * scale` at p_min to `scale` at p_max with curvature
     * kappa in [0, 1] (0 = linear gain, 1 = fully saturating with
     * zero slope at p_max).  This is how the synthetic benchmark
     * profiles are generated.
     */
    static QuadraticUtility fromShape(double r0, double kappa,
                                      double p_min, double p_max,
                                      double scale = 1.0);

    /**
     * Least-squares fit of a concave quadratic to (power,
     * throughput) samples; the quadratic coefficient is clamped to
     * <= 0 (refitting a linear model if the unconstrained fit is
     * convex).
     */
    static QuadraticUtility fitSamples(const std::vector<double> &ps,
                                       const std::vector<double> &rs);

    double value(double p) const override;
    double derivative(double p) const override;
    double minPower() const override { return p_min_; }
    double maxPower() const override { return p_max_; }
    double bestResponse(double lambda) const override;
    const QuadraticUtility *quadratic() const override { return this; }

    double coeffA() const { return a_; }
    double coeffB() const { return b_; }
    double coeffC() const { return c_; }

  private:
    double a_, b_, c_;
    double p_min_, p_max_;
};

/**
 * Piecewise-linear interpolation of measured (power, throughput)
 * samples; used when raw profiles are consumed without fitting.
 */
class PiecewiseLinearUtility : public UtilityFunction
{
  public:
    /**
     * Samples must be sorted by strictly increasing power and hold
     * at least two points.
     */
    PiecewiseLinearUtility(std::vector<double> powers,
                           std::vector<double> throughputs);

    double value(double p) const override;
    double derivative(double p) const override;
    double minPower() const override { return powers_.front(); }
    double maxPower() const override { return powers_.back(); }

  private:
    std::size_t segmentOf(double p) const;

    std::vector<double> powers_;
    std::vector<double> throughputs_;
};

/** Shared-ownership handle used across the allocators. */
using UtilityPtr = std::shared_ptr<const UtilityFunction>;

} // namespace dpc

#endif // DPC_MODEL_UTILITY_HH
