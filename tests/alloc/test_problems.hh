/**
 * @file
 * Shared problem builders for the allocator tests.
 */

#ifndef DPC_TESTS_ALLOC_TEST_PROBLEMS_HH
#define DPC_TESTS_ALLOC_TEST_PROBLEMS_HH

#include "alloc/problem.hh"
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

} // namespace test
} // namespace dpc

#endif // DPC_TESTS_ALLOC_TEST_PROBLEMS_HH
