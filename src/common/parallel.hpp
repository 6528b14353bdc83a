/**
 * @file
 * Minimal data-parallel loop support for the simulation kernels.
 *
 * Two knobs cooperate here:
 *  - a process-wide cap on kernel threads (defaults to the hardware
 *    concurrency), and
 *  - a per-thread SerialKernelScope guard that the shot-engine workers
 *    hold, so per-shot evolution never nests a second thread pool inside
 *    the already-parallel shot loop.
 *
 * All loops are exception-safe: an exception thrown inside a worker is
 * captured, every thread is joined, and the first exception (in capture
 * order) is rethrown on the calling thread instead of escaping a
 * std::thread body and terminating the process.
 */
#ifndef QA_COMMON_PARALLEL_HPP
#define QA_COMMON_PARALLEL_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace qa
{

/**
 * Process-wide cap on threads used by data-parallel kernels.
 * Defaults to std::thread::hardware_concurrency (at least 1).
 */
int kernelThreads();

/** True while the calling thread must keep kernels serial. */
bool inSerialKernelScope();

/**
 * RAII guard forcing kernels serial on the current thread. Shot-engine
 * workers hold one for their lifetime: the shot loop is the outer
 * parallelism, so the gate kernels it calls must not spawn again.
 */
class SerialKernelScope
{
  public:
    SerialKernelScope();
    ~SerialKernelScope();
    SerialKernelScope(const SerialKernelScope&) = delete;
    SerialKernelScope& operator=(const SerialKernelScope&) = delete;
};

/**
 * First-exception latch for worker pools: every worker funnels its
 * exception through capture(), the pool owner joins and calls rethrow().
 * armed() lets cooperative workers stop pulling work early once a
 * sibling has failed.
 */
class FirstException
{
  public:
    /** Store std::current_exception() if no exception is held yet. */
    void capture() noexcept;

    /** True once any worker captured an exception. */
    bool armed() const { return armed_.load(std::memory_order_acquire); }

    /** Rethrow the stored exception; no-op when none was captured. */
    void rethrow() const;

  private:
    std::mutex mutex_;
    std::exception_ptr first_;
    std::atomic<bool> armed_{false};
};

/**
 * RAII joiner for worker pools: guarantees every thread in the owned
 * vector is joined before the scope unwinds, whichever path exits it.
 * Without this, an exception between spawning and the explicit join —
 * most plausibly std::system_error from a failed thread creation —
 * destroys a vector of joinable threads (std::terminate) while the
 * workers still reference stack state that is being unwound. Declare
 * the joiner immediately after the pool and *after* any state the
 * workers capture, so destruction joins the threads while that state
 * is still alive.
 */
class ThreadJoiner
{
  public:
    explicit ThreadJoiner(std::vector<std::thread>& pool) : pool_(pool) {}

    ~ThreadJoiner() { joinAll(); }

    ThreadJoiner(const ThreadJoiner&) = delete;
    ThreadJoiner& operator=(const ThreadJoiner&) = delete;

    /** Join every joinable thread now; idempotent. */
    void
    joinAll()
    {
        for (std::thread& th : pool_) {
            if (th.joinable()) th.join();
        }
    }

  private:
    std::vector<std::thread>& pool_;
};

/**
 * Split [0, n) into contiguous chunks and run body(begin, end) on up to
 * kernelThreads() threads. Runs one inline call when the range is smaller
 * than `grain`, the cap is 1, or the caller holds a SerialKernelScope.
 * Chunks are disjoint; the body must only write state owned by its chunk.
 * If any chunk throws, all threads are joined and the first exception is
 * rethrown on the calling thread.
 */
template <typename Body>
void
parallelFor(uint64_t n, uint64_t grain, const Body& body)
{
    if (n == 0) return;
    int threads = inSerialKernelScope() ? 1 : kernelThreads();
    if (grain > 0) {
        threads = int(std::min<uint64_t>(uint64_t(std::max(threads, 1)),
                                         std::max<uint64_t>(n / grain, 1)));
    }
    if (threads <= 1) {
        body(uint64_t(0), n);
        return;
    }
    const uint64_t chunk = (n + uint64_t(threads) - 1) / uint64_t(threads);
    FirstException failure;
    std::vector<std::thread> pool;
    ThreadJoiner joiner(pool);
    try {
        pool.reserve(size_t(threads) - 1);
        for (int t = 1; t < threads; ++t) {
            const uint64_t begin = chunk * uint64_t(t);
            const uint64_t end = std::min(n, begin + chunk);
            if (begin >= end) break;
            pool.emplace_back([&body, &failure, begin, end] {
                try {
                    body(begin, end);
                } catch (...) {
                    failure.capture();
                }
            });
        }
        body(uint64_t(0), std::min(n, chunk));
    } catch (...) {
        // Spawn failure or inline-chunk exception: record it, then let
        // the joiner wait for the workers already running before the
        // stack state they reference unwinds.
        failure.capture();
    }
    joiner.joinAll();
    failure.rethrow();
}

} // namespace qa

#endif // QA_COMMON_PARALLEL_HPP
