#include "util/thread_pool.hh"

#include <unordered_map>

#include "util/logging.hh"

namespace dpc {

std::shared_ptr<ThreadPool>
ThreadPool::acquire(std::size_t num_chunks)
{
    static std::mutex registry_mutex;
    static std::unordered_map<std::size_t,
                              std::weak_ptr<ThreadPool>>
        registry;
    std::lock_guard<std::mutex> lock(registry_mutex);
    auto &slot = registry[num_chunks];
    if (auto live = slot.lock())
        return live;
    auto fresh = std::make_shared<ThreadPool>(num_chunks);
    slot = fresh;
    return fresh;
}

ThreadPool::ThreadPool(std::size_t num_chunks)
{
    DPC_ASSERT(num_chunks >= 1, "pool needs at least one chunk");
    workers_.reserve(num_chunks - 1);
    for (std::size_t c = 1; c < num_chunks; ++c)
        workers_.emplace_back([this, c] { workerLoop(c); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    start_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

std::size_t
ThreadPool::chunkBegin(std::size_t n, std::size_t chunks,
                       std::size_t c)
{
    // c * n stays well inside 64 bits for any realistic overlay
    // (chunk counts are machine-sized, n is a node count).
    return c * n / chunks;
}

std::size_t
ThreadPool::hardwareChunks()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void
ThreadPool::runChunk(std::size_t chunk)
{
    const std::size_t chunks = numChunks();
    const std::size_t begin = chunkBegin(job_n_, chunks, chunk);
    const std::size_t end = chunkBegin(job_n_, chunks, chunk + 1);
    if (begin < end)
        (*job_)(chunk, begin, end);
}

void
ThreadPool::workerLoop(std::size_t chunk)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [&] {
                return stopping_ || generation_ != seen;
            });
            if (stopping_)
                return;
            seen = generation_;
        }
        // job_ / job_n_ are stable for the whole generation: the
        // issuing thread only mutates them under the mutex before
        // bumping generation_ and after outstanding_ drops to zero.
        runChunk(chunk);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--outstanding_ == 0)
                done_cv_.notify_one();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n, const ChunkFn &fn)
{
    if (workers_.empty()) {
        if (n > 0)
            fn(0, 0, n);
        return;
    }
    if (n <= kSerialCutoff) {
        // Same chunk geometry, caller-inline: cheaper than the
        // worker wake/park round-trip at this size, bitwise the
        // same result.
        const std::size_t chunks = numChunks();
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t begin = chunkBegin(n, chunks, c);
            const std::size_t end = chunkBegin(n, chunks, c + 1);
            if (begin < end)
                fn(c, begin, end);
        }
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &fn;
        job_n_ = n;
        outstanding_ = workers_.size();
        ++generation_;
    }
    start_cv_.notify_all();
    runChunk(0); // the caller owns chunk 0
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return outstanding_ == 0; });
    job_ = nullptr;
}

} // namespace dpc
