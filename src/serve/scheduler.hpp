/**
 * @file
 * Multi-tenant assertion-job scheduler: the in-process service front
 * door (qassertd is a thin NDJSON loop over it).
 *
 * Shape: submit() performs admission control — a bounded priority
 * queue rejects with ErrorCode::kQueueFull instead of blocking — and a
 * fixed worker pool drains the queue, consulting the cross-job
 * ResultCache before dispatching cache misses onto the shot-execution
 * engine (executeJob -> runShots / runAssertedPolicy).
 *
 * One attempt per job: the worker that pops a job runs it once and
 * resolves it with whatever it produced. A job's result is a pure
 * function of its JobSpec (see serve/job.hpp), so a second attempt
 * could only repeat the first one's failure; the scheduler never
 * retries, and a failed job says nothing about the service's health.
 * Recovery from a crashed process is journal replay (qassertd
 * --replay) and, in a fleet, failover to a sibling shard.
 *
 * Determinism: per-job results are bit-identical for any worker count,
 * arrival order, or cache state. Scheduling only affects latency,
 * never payloads.
 *
 * Lifecycle: workers start immediately (or parked when
 * SchedulerOptions::start_paused, until resume()). stop() — also run by
 * the destructor — rejects new work, fulfills still-queued jobs with
 * JobStatus::kCancelled, finishes in-flight jobs, and joins every
 * worker; no detached threads, ever.
 */
#ifndef QA_SERVE_SCHEDULER_HPP
#define QA_SERVE_SCHEDULER_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/job.hpp"
#include "serve/metrics.hpp"

namespace qa
{
namespace serve
{

/**
 * Test hook run by a worker just before it executes a job (before the
 * cache lookup). Receives the job's admission sequence number. May
 * block (holding the job in flight) or throw (failing the job).
 */
using ExecHook = std::function<void(uint64_t seq)>;

/** Scheduler sizing and behaviour knobs. */
struct SchedulerOptions
{
    /** Worker threads; <= 0 picks hardware concurrency. */
    int workers = 0;

    /** Max jobs waiting in the queue before admission rejects. */
    size_t queue_capacity = 1024;

    /** ResultCache entries; 0 disables cross-job caching. */
    size_t cache_capacity = 512;

    /**
     * Park the workers until resume(): admission runs but nothing
     * dispatches. Lets tests and batch loaders stage a queue
     * deterministically before execution starts.
     */
    bool start_paused = false;

    /** Test injection point; empty = no-op. */
    ExecHook exec_hook;
};

/** Completion callback; invoked exactly once per admitted job. */
using JobCallback = std::function<void(JobResult)>;

class Scheduler
{
  public:
    explicit Scheduler(SchedulerOptions options = {});

    /** stop()s and joins the pool. */
    ~Scheduler();

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /**
     * Admit a job and resolve the returned future when it completes
     * (any JobStatus). Throws UserError immediately on backpressure
     * (ErrorCode::kQueueFull) or after stop()
     * (ErrorCode::kServiceStopped); rejected jobs consume no queue slot.
     */
    std::future<JobResult> submit(JobSpec spec);

    /**
     * Callback flavour (qassertd's path): `done` runs on the worker
     * that finished the job — keep it short and never submit from it.
     */
    void submit(JobSpec spec, JobCallback done);

    /** Unpark the workers of a start_paused scheduler. Idempotent. */
    void resume();

    /**
     * Block until every admitted job has resolved. The scheduler must
     * not be paused (a parked pool would never drain).
     */
    void drain();

    /**
     * Bounded drain: wait up to `timeout_ms` for every admitted job to
     * resolve. Returns true when idle; false on timeout with work still
     * pending (the graceful-shutdown path then calls stop(), which
     * cancels whatever remains). `timeout_ms` <= 0 returns immediately.
     */
    bool drainFor(double timeout_ms);

    /**
     * Reject new submissions, cancel still-queued jobs
     * (JobStatus::kCancelled, ErrorCode::kServiceStopped), finish
     * in-flight ones, and join all workers. Idempotent.
     */
    void stop();

    /** Resolved worker-pool size. */
    int
    workers() const
    {
        return workers_;
    }

    /** Counters + queue depth + cache, one consistent snapshot. */
    MetricsSnapshot metrics() const;

    /**
     * Backoff hint (ms) for a submission this scheduler just rejected
     * with `code`; 0 means "no estimate" and the field is omitted from
     * the wire response. Only kQueueFull has one: a queue slot frees
     * when any of the `workers()` workers pulls its next job, so the
     * observed mean execution time / workers approximates that wait
     * (10 ms before any job has finished; clamped to [1, 10000] ms).
     */
    double retryAfterMsHint(ErrorCode code) const;

    /** @name Cheap liveness numbers for the ping response. */
    ///@{
    size_t queueDepth() const; ///< Jobs waiting for a worker.
    size_t inFlight() const;   ///< Jobs executing right now.
    ///@}

    /** Cache counters alone (benches assert on hit rates). */
    CacheStats cacheStats() const { return cache_.stats(); }

  private:
    /** One admitted job, owned by the queue until a worker pops it. */
    struct Ticket
    {
        JobSpec spec;
        uint64_t seq = 0;
        int priority = 0;
        std::chrono::steady_clock::time_point enqueued;
        JobCallback done;
    };
    using TicketPtr = std::unique_ptr<Ticket>;

    /** Max-heap order: highest priority first, FIFO within a level. */
    struct TicketOrder
    {
        bool
        operator()(const TicketPtr& a, const TicketPtr& b) const
        {
            if (a->priority != b->priority) {
                return a->priority < b->priority;
            }
            return a->seq > b->seq; // lower seq = older = higher priority
        }
    };

    void workerLoop();
    JobResult run(const Ticket& ticket);
    void resolve(const Ticket& ticket, JobResult result);

    SchedulerOptions options_;
    ResultCache cache_;
    ServiceMetrics metrics_;
    int workers_ = 0;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_; // queue/pause/stop changes
    std::condition_variable idle_cv_; // resolution changes
    std::vector<TicketPtr> queue_;    // heap ordered by TicketOrder
    uint64_t next_seq_ = 0;
    size_t in_flight_ = 0;   ///< Workers inside run() right now.
    size_t unresolved_ = 0;  ///< Admitted jobs not yet resolved.
    bool paused_ = false;
    bool stopped_ = false;

    std::vector<std::thread> threads_;
};

} // namespace serve
} // namespace qa

#endif // QA_SERVE_SCHEDULER_HPP
