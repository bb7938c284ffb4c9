#include "util/rng.hh"

#include "util/logging.hh"

namespace dpc {

Rng::Rng(std::uint64_t seed)
    : engine_(seed)
{
}

void
Rng::seed(std::uint64_t seed)
{
    engine_.seed(seed);
}

double
Rng::uniform(double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    DPC_ASSERT(lo <= hi, "bad uniformInt range");
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
}

double
Rng::normal(double mean, double stddev)
{
    // std::normal_distribution requires stddev > 0, so draw a
    // standard normal and scale it ourselves: z * stddev + mean is
    // the expression libstdc++ evaluates for a (mean, stddev)
    // distribution, so streams with stddev > 0 are unchanged, and
    // stddev == 0 returns the mean after the same engine advance.
    DPC_ASSERT(stddev >= 0.0, "normal stddev must be non-negative");
    std::normal_distribution<double> dist;
    return dist(engine_) * stddev + mean;
}

double
Rng::exponential(double rate)
{
    DPC_ASSERT(rate > 0.0, "exponential rate must be positive");
    std::exponential_distribution<double> dist(rate);
    return dist(engine_);
}

std::int64_t
Rng::poisson(double mean)
{
    DPC_ASSERT(mean >= 0.0, "poisson mean must be non-negative");
    if (mean == 0.0)
        return 0;
    std::poisson_distribution<std::int64_t> dist(mean);
    return dist(engine_);
}

bool
Rng::bernoulli(double p)
{
    std::bernoulli_distribution dist(p);
    return dist(engine_);
}

std::size_t
Rng::index(std::size_t n)
{
    DPC_ASSERT(n > 0, "index() on empty range");
    return static_cast<std::size_t>(uniformInt(0, (std::int64_t)n - 1));
}

} // namespace dpc
