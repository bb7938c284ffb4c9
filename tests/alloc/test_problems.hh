/**
 * @file
 * Shared problem builders for the allocator tests.
 */

#ifndef DPC_TESTS_ALLOC_TEST_PROBLEMS_HH
#define DPC_TESTS_ALLOC_TEST_PROBLEMS_HH

#include <memory>

#include "alloc/problem.hh"
#include "model/utility.hh"
#include "workload/generator.hh"

namespace dpc {
namespace test {

/** Random NPB/HPCC problem with budget at `watts_per_node` * n. */
inline AllocationProblem
npbProblem(std::size_t n, double watts_per_node, std::uint64_t seed)
{
    return AllocationProblem::Builder()
        .npbCluster(n, seed)
        .budgetPerNode(watts_per_node)
        .build();
}

/** Tiny fixed problem with hand-checkable structure. */
inline AllocationProblem
tinyProblem()
{
    // A compute-bound and a memory-bound server.
    return AllocationProblem::Builder()
        .quadratic(0.4, 0.2, 100.0, 200.0)
        .quadratic(0.9, 0.9, 100.0, 200.0)
        .budget(310.0)
        .build();
}

/**
 * A QuadraticUtility behind a type the allocators cannot see
 * through: every call forwards to the quadratic it holds, but it is
 * not a QuadraticUtility, so DibaAllocator's devirtualized SoA path
 * stays off and the same problem runs the generic
 * (virtual-dispatch, finite-difference) path.
 */
class OpaqueQuadratic final : public UtilityFunction
{
  public:
    explicit OpaqueQuadratic(QuadraticUtility q) : q_(q) {}

    double value(double p) const override { return q_.value(p); }
    double derivative(double p) const override
    {
        return q_.derivative(p);
    }
    double minPower() const override { return q_.minPower(); }
    double maxPower() const override { return q_.maxPower(); }
    double bestResponse(double lambda) const override
    {
        return q_.bestResponse(lambda);
    }

  private:
    QuadraticUtility q_;
};

/** `prob` with every (quadratic) utility wrapped in an
 * OpaqueQuadratic: same values, generic DiBA path. */
inline AllocationProblem
opaqueProblem(AllocationProblem prob)
{
    for (UtilityPtr &u : prob.utilities)
        u = std::make_shared<OpaqueQuadratic>(
            dynamic_cast<const QuadraticUtility &>(*u));
    return prob;
}

} // namespace test
} // namespace dpc

#endif // DPC_TESTS_ALLOC_TEST_PROBLEMS_HH
