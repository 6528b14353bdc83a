#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sim/engine.hpp"

namespace qa
{
namespace serve
{

Scheduler::Scheduler(SchedulerOptions options)
    : options_(std::move(options)),
      clock_(resolveClock(options_.clock)),
      cache_(options_.cache_capacity),
      paused_(options_.start_paused)
{
    QA_REQUIRE(options_.queue_capacity > 0,
               "scheduler needs a positive queue capacity");
    int workers = options_.workers;
    if (workers <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        workers = hw == 0 ? 1 : int(hw);
    }
    workers_ = workers;
    threads_.reserve(size_t(workers));
    for (int i = 0; i < workers; ++i) {
        threads_.emplace_back([this] { workerLoop(); });
    }
}

Scheduler::~Scheduler() { stop(); }

void
Scheduler::submit(JobSpec spec, JobCallback done)
{
    QA_REQUIRE(done != nullptr, "submit needs a completion callback");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) {
            metrics_.rejected.fetch_add(1, std::memory_order_relaxed);
            QA_FAIL_CODE(ErrorCode::kServiceStopped,
                         "scheduler is stopped; job rejected");
        }
        if (queue_.size() >= options_.queue_capacity) {
            metrics_.rejected.fetch_add(1, std::memory_order_relaxed);
            QA_FAIL_CODE(ErrorCode::kQueueFull,
                         "admission queue full (capacity " +
                             std::to_string(options_.queue_capacity) +
                             "); retry later or raise queue_capacity");
        }
        auto ticket = std::make_unique<Ticket>();
        ticket->priority = spec.priority;
        ticket->spec = std::move(spec);
        ticket->seq = next_seq_++;
        ticket->enqueued = clock_.now();
        ticket->done = std::move(done);
        queue_.push_back(std::move(ticket));
        std::push_heap(queue_.begin(), queue_.end(), TicketOrder{});
        metrics_.accepted.fetch_add(1, std::memory_order_relaxed);
        ++unresolved_;
    }
    work_cv_.notify_one();
}

double
Scheduler::retryAfterMsHint(ErrorCode code) const
{
    if (code != ErrorCode::kQueueFull) return 0.0;
    const LatencyHistogramSnapshot exec = metrics_.execute.snapshot();
    // No completions observed yet: suggest a token backoff rather than
    // an invented latency.
    double hint = exec.total == 0 ? 10.0 : exec.meanMs() / double(workers_);
    if (hint < 1.0) hint = 1.0;
    if (hint > 10000.0) hint = 10000.0;
    return hint;
}

size_t
Scheduler::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

size_t
Scheduler::inFlight() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return in_flight_;
}

std::future<JobResult>
Scheduler::submit(JobSpec spec)
{
    auto promise = std::make_shared<std::promise<JobResult>>();
    std::future<JobResult> future = promise->get_future();
    submit(std::move(spec), [promise](JobResult result) {
        promise->set_value(std::move(result));
    });
    return future;
}

void
Scheduler::resume()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    work_cv_.notify_all();
}

void
Scheduler::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    QA_REQUIRE(!paused_, "drain on a paused scheduler would never finish");
    idle_cv_.wait(lock, [this] { return unresolved_ == 0 || stopped_; });
}

bool
Scheduler::drainFor(double timeout_ms)
{
    std::unique_lock<std::mutex> lock(mutex_);
    QA_REQUIRE(!paused_, "drain on a paused scheduler would never finish");
    const auto idle = [this] { return unresolved_ == 0 || stopped_; };
    if (timeout_ms <= 0.0) return idle();
    return idle_cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(timeout_ms), idle);
}

void
Scheduler::stop()
{
    std::vector<TicketPtr> orphans;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) return;
        stopped_ = true;
        orphans.swap(queue_);
    }
    work_cv_.notify_all();
    idle_cv_.notify_all();
    for (std::thread& thread : threads_) {
        if (thread.joinable()) thread.join();
    }

    for (TicketPtr& ticket : orphans) {
        JobResult result;
        result.status = JobStatus::kCancelled;
        result.error_code = ErrorCode::kServiceStopped;
        result.error_message = "scheduler stopped before the job ran";
        result.tag = ticket->spec.tag;
        result.queue_ms = clock_.elapsedMs(ticket->enqueued);
        resolve(*ticket, std::move(result));
    }
}

MetricsSnapshot
Scheduler::metrics() const
{
    MetricsSnapshot snap = metrics_.snapshot();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snap.queue_depth = queue_.size();
        snap.in_flight = in_flight_;
    }
    const CacheStats cache = cache_.stats();
    snap.cache_hits = cache.hits;
    snap.cache_misses = cache.misses;
    snap.cache_insertions = cache.insertions;
    snap.cache_evictions = cache.evictions;
    snap.cache_entries = cache.entries;
    return snap;
}

void
Scheduler::workerLoop()
{
    // The job pool is the outer parallelism: gate kernels invoked by a
    // job running with num_threads == 1 must stay serial on this thread
    // (jobs that opt into their own shot pool spawn fresh threads, which
    // do not inherit the scope).
    SerialKernelScope serial;
    for (;;) {
        TicketPtr ticket;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [this] {
                return stopped_ || (!paused_ && !queue_.empty());
            });
            if (stopped_) return;
            std::pop_heap(queue_.begin(), queue_.end(), TicketOrder{});
            ticket = std::move(queue_.back());
            queue_.pop_back();
            ++in_flight_;
        }
        JobResult result = run(*ticket);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --in_flight_;
        }
        resolve(*ticket, std::move(result));
    }
}

JobResult
Scheduler::run(const Ticket& ticket)
{
    const double queue_ms = clock_.elapsedMs(ticket.enqueued);
    metrics_.queue_wait.record(queue_ms);

    const bool cacheable =
        ticket.spec.use_cache && options_.cache_capacity > 0;
    const Hash128 key = cacheable ? jobKey(ticket.spec) : Hash128{};

    JobResult result;
    bool from_cache = false;
    const Clock::TimePoint exec_start = clock_.now();
    try {
        if (options_.exec_hook) options_.exec_hook(ticket.seq);
        if (cacheable) {
            if (std::optional<JobResult> hit = cache_.get(key)) {
                result = std::move(*hit);
                from_cache = true;
            }
        }
        if (!from_cache) {
            result = executeJob(ticket.spec);
            metrics_.recordBackend(result.backend.backend);
            if (cacheable) cache_.put(key, result);
        }
    } catch (const std::exception& err) {
        result = failedResult(err);
    }
    if (from_cache) {
        result.exec_ms = 0.0;
    } else {
        result.exec_ms = clock_.elapsedMs(exec_start);
        metrics_.execute.record(result.exec_ms);
    }
    result.cache_hit = from_cache;
    result.queue_ms = queue_ms;
    result.tag = ticket.spec.tag;
    return result;
}

void
Scheduler::resolve(const Ticket& ticket, JobResult result)
{
    if (result.status == JobStatus::kOk) {
        metrics_.completed.fetch_add(1, std::memory_order_relaxed);
    } else if (result.status == JobStatus::kFailed) {
        metrics_.failed.fetch_add(1, std::memory_order_relaxed);
    } else {
        metrics_.cancelled.fetch_add(1, std::memory_order_relaxed);
    }
    try {
        ticket.done(std::move(result));
    } catch (...) {
        // The job itself completed; a throwing callback must not kill
        // the worker (std::thread would terminate the process).
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --unresolved_;
    }
    idle_cv_.notify_all();
}

} // namespace serve
} // namespace qa
