#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <tuple>
#include <vector>

#include "util/thread_pool.hh"

namespace dpc {
namespace {

TEST(ThreadPoolTest, ChunkBoundsPartitionTheRange)
{
    // Static boundaries c*n/chunks tile [0, n) exactly, in order,
    // with no chunk larger than ceil(n/chunks).
    for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
        for (std::size_t chunks : {1u, 2u, 3u, 8u, 13u}) {
            EXPECT_EQ(ThreadPool::chunkBegin(n, chunks, 0), 0u);
            EXPECT_EQ(ThreadPool::chunkBegin(n, chunks, chunks), n);
            for (std::size_t c = 0; c < chunks; ++c) {
                const auto b = ThreadPool::chunkBegin(n, chunks, c);
                const auto e =
                    ThreadPool::chunkBegin(n, chunks, c + 1);
                EXPECT_LE(b, e);
                EXPECT_LE(e - b, (n + chunks - 1) / chunks);
            }
        }
    }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 1003;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t, std::size_t b,
                            std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, FewerItemsThanChunksStillCovers)
{
    ThreadPool pool(8);
    std::atomic<int> sum{0};
    pool.parallelFor(3, [&](std::size_t, std::size_t b,
                            std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            sum.fetch_add(static_cast<int>(i) + 1);
    });
    EXPECT_EQ(sum.load(), 1 + 2 + 3);
}

TEST(ThreadPoolTest, EmptyRangeIsANoop)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(0, [&](std::size_t, std::size_t b,
                            std::size_t e) {
        if (b != e)
            calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, SingleChunkRunsInline)
{
    // num_chunks == 1 spawns no workers; the callback runs on the
    // calling thread over the whole range.
    ThreadPool pool(1);
    std::vector<int> data(100, 0);
    pool.parallelFor(data.size(), [&](std::size_t c, std::size_t b,
                                      std::size_t e) {
        EXPECT_EQ(c, 0u);
        for (std::size_t i = b; i < e; ++i)
            data[i] = 1;
    });
    EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 100);
}

TEST(ThreadPoolTest, ReusableAcrossManyRounds)
{
    // The pool must survive thousands of handoffs without losing a
    // wakeup (the generation counter guards against spurious and
    // missed notifications).
    ThreadPool pool(4);
    const std::size_t n = 256;
    std::vector<long> acc(n, 0);
    for (int round = 0; round < 2000; ++round) {
        pool.parallelFor(n, [&](std::size_t, std::size_t b,
                                std::size_t e) {
            for (std::size_t i = b; i < e; ++i)
                acc[i] += 1;
        });
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(acc[i], 2000) << "index " << i;
}

TEST(ThreadPoolTest, HardwareChunksIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareChunks(), 1u);
}

TEST(ThreadPoolTest, ExplicitCutoffKeepsChunkGeometry)
{
    // The serial cutoff only decides who executes the chunks
    // (caller inline vs workers); the (chunk, begin, end) triples
    // handed to the body must be chunkBegin's geometry either way.
    ThreadPool pool(4);
    using Triple = std::tuple<std::size_t, std::size_t, std::size_t>;
    const auto collect = [&](std::size_t n) {
        std::mutex m;
        std::vector<Triple> triples;
        pool.parallelFor(
            n, [&](std::size_t c, std::size_t b, std::size_t e) {
                std::lock_guard<std::mutex> lock(m);
                triples.emplace_back(c, b, e);
            });
        std::sort(triples.begin(), triples.end());
        return triples;
    };
    const auto geometry = [&](std::size_t n) {
        std::vector<Triple> triples;
        const std::size_t chunks = pool.numChunks();
        for (std::size_t c = 0; c < chunks; ++c) {
            const auto b = ThreadPool::chunkBegin(n, chunks, c);
            const auto e = ThreadPool::chunkBegin(n, chunks, c + 1);
            if (b < e)
                triples.emplace_back(c, b, e);
        }
        return triples;
    };
    // Far below the cutoff (runs inline), and just past it (wakes
    // the workers).
    for (const std::size_t n : {std::size_t{10},
                                ThreadPool::kSerialCutoff + 1})
        EXPECT_EQ(collect(n), geometry(n)) << "n = " << n;
}

} // namespace
} // namespace dpc
