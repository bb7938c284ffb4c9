/**
 * @file
 * Small fixed-size worker pool with a static-chunked parallelFor,
 * used by the allocator round engines (DiBA's synchronized round,
 * dense or over the active-set frontier, and the primal-dual
 * best-response sweep).
 *
 * Design goals, in order:
 *
 *  1. Determinism.  parallelFor splits [0, n) into exactly
 *     numChunks() contiguous chunks whose boundaries depend only on
 *     n and the chunk count -- never on timing.  A caller whose
 *     chunk bodies touch disjoint state therefore produces results
 *     that are bitwise identical to a serial loop over the same
 *     per-index computation, and identical across runs.
 *  2. Reuse.  Workers are spawned once and parked on a condition
 *     variable between calls; a round engine issuing thousands of
 *     parallelFor calls pays no thread-create cost per round.
 *  3. Simplicity.  No work stealing, no futures: the calling thread
 *     participates (it runs chunk 0), so a pool built for T chunks
 *     owns T - 1 OS threads and parallelFor is a plain barrier.
 */

#ifndef DPC_UTIL_THREAD_POOL_HH
#define DPC_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dpc {

/** Fixed-size pool running static-chunked parallel loops. */
class ThreadPool
{
  public:
    /**
     * Chunk body: receives the chunk index and the half-open index
     * range [begin, end) it owns.  Bodies run concurrently and must
     * only write state that no other chunk touches.
     */
    using ChunkFn = std::function<void(
        std::size_t chunk, std::size_t begin, std::size_t end)>;

    /**
     * @param num_chunks total parallelism (>= 1); the pool spawns
     *        num_chunks - 1 worker threads and the caller of
     *        parallelFor runs the remaining chunk itself.
     */
    explicit ThreadPool(std::size_t num_chunks);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /**
     * Process-wide pool registry: returns the live pool with this
     * chunk count, or creates one.  Engine objects (allocators,
     * solvers, bench fixtures) come and go far more often than a
     * worker set is worth spawning -- a bench sweep builds
     * hundreds of allocator instances -- so they share one set of
     * parked OS threads per width instead of respawning per
     * instance; the pool dies with its last owner.  Chunk
     * geometry, and with it every bitwise-determinism guarantee,
     * depends only on the chunk count, never on which instances
     * share the workers.  Sharing assumes what was already true of
     * per-instance pools: parallelFor is not re-entrant, so
     * engines sharing a width must be driven from one thread at a
     * time (the pool's workers provide the parallelism, the
     * drivers never overlap).
     */
    static std::shared_ptr<ThreadPool> acquire(
        std::size_t num_chunks);

    /** Number of chunks every parallelFor is split into. */
    std::size_t numChunks() const { return workers_.size() + 1; }

    /**
     * Run fn over [0, n) split into numChunks() contiguous chunks
     * (chunk c owns [c*n/C, (c+1)*n/C)); blocks until every chunk
     * has finished.  Empty chunks (n < numChunks()) are skipped.
     *
     * Ranges at or under kSerialCutoff run every chunk inline on
     * the caller instead of waking the workers: at small n the
     * wake/park round-trip costs more than the loop body, and the
     * chunk geometry is identical either way, so the results are
     * bitwise the same and only the wall clock changes.
     */
    void parallelFor(std::size_t n, const ChunkFn &fn);

    /** parallelFor range size at or below which the chunks run
     * inline on the calling thread. */
    static constexpr std::size_t kSerialCutoff = 2048;

    /** Chunk boundary helper: start of chunk c when [0,n) is cut
     * into `chunks` pieces.  Exposed for tests. */
    static std::size_t chunkBegin(std::size_t n, std::size_t chunks,
                                  std::size_t c);

    /** A sensible default width: the hardware concurrency, at
     * least 1. */
    static std::size_t hardwareChunks();

  private:
    void workerLoop(std::size_t chunk);
    void runChunk(std::size_t chunk);

    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    /** Incremented per parallelFor; workers wake on a change. */
    std::uint64_t generation_ = 0;
    /** Workers still running the current generation. */
    std::size_t outstanding_ = 0;
    const ChunkFn *job_ = nullptr;
    std::size_t job_n_ = 0;
    bool stopping_ = false;
};

} // namespace dpc

#endif // DPC_UTIL_THREAD_POOL_HH
