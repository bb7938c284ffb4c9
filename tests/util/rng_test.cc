#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.hh"
#include "util/stats.hh"

namespace dpc {
namespace {

TEST(RngTest, SameSeedSameSequence)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, ReseedRestartsSequence)
{
    Rng a(7);
    const double first = a.uniform();
    a.uniform();
    a.seed(7);
    EXPECT_EQ(a.uniform(), first);
}

TEST(RngTest, UniformStaysInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(2.0, 5.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(RngTest, UniformIntCoversRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ZeroStddevNormalIsTheMean)
{
    // A zero-spread draw returns the mean exactly and consumes the
    // engine exactly as a unit-spread draw does, so noise-free
    // configurations keep every later draw of the stream.
    Rng zero(5);
    Rng unit(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(zero.normal(3.5, 0.0), 3.5);
        unit.normal(3.5, 1.0);
        EXPECT_EQ(zero.uniform(), unit.uniform());
    }
}

TEST(RngTest, NormalMomentsApproximate)
{
    Rng rng(5);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i)
        xs.push_back(rng.normal(10.0, 2.0));
    EXPECT_NEAR(mean(xs), 10.0, 0.1);
    EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(RngTest, ExponentialMeanApproximate)
{
    Rng rng(9);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i)
        xs.push_back(rng.exponential(0.5));
    EXPECT_NEAR(mean(xs), 2.0, 0.1);
}

TEST(RngTest, PoissonMeanApproximate)
{
    Rng rng(13);
    double acc = 0.0;
    for (int i = 0; i < 20000; ++i)
        acc += static_cast<double>(rng.poisson(4.0));
    EXPECT_NEAR(acc / 20000.0, 4.0, 0.1);
}

TEST(RngTest, BernoulliFrequencyApproximate)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(RngTest, ChoicePicksEveryElementEventually)
{
    Rng rng(23);
    const std::vector<int> items{1, 2, 3};
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 3000; ++i)
        ++counts[static_cast<std::size_t>(rng.choice(items))];
    EXPECT_GT(counts[1], 0);
    EXPECT_GT(counts[2], 0);
    EXPECT_GT(counts[3], 0);
}

TEST(RngTest, ShufflePreservesMultiset)
{
    Rng rng(29);
    std::vector<int> xs{1, 2, 3, 4, 5, 6};
    auto ys = xs;
    rng.shuffle(ys);
    std::sort(ys.begin(), ys.end());
    EXPECT_EQ(xs, ys);
}

TEST(RngTest, IndexRejectsEmpty)
{
    Rng rng(1);
    EXPECT_DEATH(rng.index(0), "empty");
}

} // namespace
} // namespace dpc
