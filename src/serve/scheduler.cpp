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

namespace
{

Clock::TimePoint
afterMs(Clock& clock, double ms)
{
    return clock.now() +
           std::chrono::duration_cast<Clock::TimePoint::duration>(
               std::chrono::duration<double, std::milli>(ms));
}

} // namespace

Scheduler::Scheduler(SchedulerOptions options)
    : options_(std::move(options)),
      clock_(resolveClock(options_.clock)),
      cache_(options_.cache_capacity),
      breaker_(options_.breaker, options_.clock),
      paused_(options_.start_paused)
{
    QA_REQUIRE(options_.queue_capacity > 0,
               "scheduler needs a positive queue capacity");
    QA_REQUIRE(options_.retry.max_attempts > 0,
               "scheduler needs a positive retry attempt budget");
    int workers = options_.workers;
    if (workers <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        workers = hw == 0 ? 1 : int(hw);
    }
    workers_ = workers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        slots_.resize(size_t(workers));
        for (size_t i = 0; i < slots_.size(); ++i) spawnSlotLocked(i);
    }
    if (options_.supervisor.stall_timeout_ms > 0.0) {
        watchdog_.start([this] { watchdogScan(); },
                        options_.supervisor.poll_interval_ms);
    }
}

Scheduler::~Scheduler() { stop(); }

void
Scheduler::submit(JobSpec spec, JobCallback done)
{
    QA_REQUIRE(done != nullptr, "submit needs a completion callback");
    if (!breaker_.tryAdmit()) {
        metrics_.shed.fetch_add(1, std::memory_order_relaxed);
        QA_FAIL_CODE(ErrorCode::kShedding,
                     "circuit breaker open; load shed at admission "
                     "(retry after the cooldown)");
    }
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
        auto ticket = std::make_shared<Ticket>();
        ticket->priority = spec.priority;
        ticket->spec = std::move(spec);
        ticket->seq = next_seq_++;
        ticket->enqueued = clock_.now();
        ticket->done = std::move(done);
        pushQueueLocked(std::move(ticket));
        metrics_.accepted.fetch_add(1, std::memory_order_relaxed);
        ++unresolved_;
    }
    work_cv_.notify_one();
}

double
Scheduler::retryAfterMsHint(ErrorCode code) const
{
    if (code == ErrorCode::kShedding) return breaker_.retryAfterMs();
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
    return queue_.size() + stash_.size();
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
    // The watchdog scan takes mutex_, so stop it before anything else
    // and never while holding the lock.
    watchdog_.stop();

    std::vector<TicketPtr> orphans;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) return;
        stopped_ = true;
        for (TicketPtr& ticket : queue_) {
            orphans.push_back(std::move(ticket));
        }
        queue_.clear();
        for (StashEntry& entry : stash_) {
            orphans.push_back(std::move(entry.ticket));
        }
        stash_.clear();
    }
    work_cv_.notify_all();
    idle_cv_.notify_all();
    for (Slot& slot : slots_) {
        if (slot.thread.joinable()) slot.thread.join();
    }
    for (std::thread& zombie : zombies_) {
        if (zombie.joinable()) zombie.join();
    }
    zombies_.clear();

    for (TicketPtr& ticket : orphans) {
        JobResult result;
        result.status = JobStatus::kCancelled;
        result.error_code = ErrorCode::kServiceStopped;
        result.error_message = "scheduler stopped before the job ran";
        result.tag = ticket->spec.tag;
        result.queue_ms = clock_.elapsedMs(ticket->enqueued);
        resolveFinal(ticket, std::move(result));
    }
}

MetricsSnapshot
Scheduler::metrics() const
{
    MetricsSnapshot snap = metrics_.snapshot();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snap.queue_depth = queue_.size() + stash_.size();
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
Scheduler::pushQueueLocked(TicketPtr ticket)
{
    queue_.push_back(std::move(ticket));
    std::push_heap(queue_.begin(), queue_.end(), TicketOrder{});
}

void
Scheduler::promoteDueRetriesLocked()
{
    if (stash_.empty()) return;
    const Clock::TimePoint now = clock_.now();
    size_t kept = 0;
    for (size_t i = 0; i < stash_.size(); ++i) {
        if (stash_[i].release <= now) {
            pushQueueLocked(std::move(stash_[i].ticket));
        } else {
            stash_[kept++] = std::move(stash_[i]);
        }
    }
    stash_.resize(kept);
}

void
Scheduler::spawnSlotLocked(size_t slot_index)
{
    Slot& slot = slots_[slot_index];
    ++slot.generation;
    slot.heartbeat =
        std::make_shared<resilience::Heartbeat>(options_.clock);
    slot.running.reset();
    slot.running_attempt = 0;
    const uint64_t generation = slot.generation;
    std::shared_ptr<resilience::Heartbeat> heartbeat = slot.heartbeat;
    slot.thread =
        std::thread([this, slot_index, generation, heartbeat]() mutable {
            workerLoop(slot_index, generation, std::move(heartbeat));
        });
}

void
Scheduler::workerLoop(size_t slot_index, uint64_t generation,
                      std::shared_ptr<resilience::Heartbeat> heartbeat)
{
    // The job pool is the outer parallelism: gate kernels invoked by a
    // job running with num_threads == 1 must stay serial on this thread
    // (jobs that opt into their own shot pool spawn fresh threads, which
    // do not inherit the scope).
    SerialKernelScope serial;
    for (;;) {
        TicketPtr ticket;
        int attempt = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            for (;;) {
                if (stopped_) return;
                if (slots_[slot_index].generation != generation) {
                    return; // replaced by the watchdog; exit quietly
                }
                promoteDueRetriesLocked();
                if (!paused_ && !queue_.empty()) break;
                if (!paused_ && !stash_.empty()) {
                    // A retry is waiting out its backoff; poll so it
                    // promotes promptly without a dedicated timer.
                    work_cv_.wait_for(lock, std::chrono::milliseconds(1));
                } else {
                    work_cv_.wait(lock);
                }
            }
            std::pop_heap(queue_.begin(), queue_.end(), TicketOrder{});
            ticket = std::move(queue_.back());
            queue_.pop_back();
            attempt = ticket->attempt;
            slots_[slot_index].running = ticket;
            slots_[slot_index].running_attempt = attempt;
            heartbeat->beginWork(ticket->seq);
            ++in_flight_;
        }
        JobResult result = runAttempt(*ticket, attempt);
        heartbeat->endWork();
        finishAttempt(slot_index, generation, ticket, attempt,
                      std::move(result));
    }
}

JobResult
Scheduler::runAttempt(const Ticket& ticket, int attempt)
{
    const double queue_ms = clock_.elapsedMs(ticket.enqueued);
    metrics_.queue_wait.record(queue_ms);
    breaker_.observeQueueWait(queue_ms);

    const bool cacheable =
        ticket.spec.use_cache && options_.cache_capacity > 0;
    const Hash128 key = cacheable ? jobKey(ticket.spec) : Hash128{};

    JobResult result;
    bool from_cache = false;
    const Clock::TimePoint exec_start = clock_.now();
    try {
        if (options_.exec_hook) options_.exec_hook(ticket.seq, attempt);
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
Scheduler::finishAttempt(size_t slot_index, uint64_t generation,
                         const TicketPtr& ticket, int attempt,
                         JobResult result)
{
    bool final = false;
    bool stashed = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --in_flight_;
        Slot& slot = slots_[slot_index];
        if (slot.generation == generation) {
            slot.running.reset();
            slot.running_attempt = 0;
        }
        int expected = attempt;
        if (!ticket->claim.compare_exchange_strong(expected, attempt + 1)) {
            // The watchdog reclaimed this attempt while we were running:
            // the job is already retried or failed elsewhere, and this
            // late result must be dropped, not double-delivered.
            return;
        }
        if (result.status == JobStatus::kFailed && !stopped_) {
            const double spent = clock_.elapsedMs(ticket->enqueued);
            const resilience::RetryDecision decision =
                resilience::decideRetry(options_.retry, ticket->seq,
                                        attempt, result.error_code,
                                        ticket->spec.deadline_ms, spent);
            if (decision.retry) {
                ticket->attempt = attempt + 1;
                stash_.push_back(
                    {ticket, afterMs(clock_, decision.backoff_ms)});
                metrics_.retried.fetch_add(1, std::memory_order_relaxed);
                stashed = true;
            }
        }
        if (!stashed) final = true;
    }
    if (stashed) {
        // Wake a parked worker so it switches to the polling wait that
        // promotes the retry once its backoff elapses.
        work_cv_.notify_all();
        return;
    }
    if (final) resolveFinal(ticket, std::move(result));
}

void
Scheduler::resolveFinal(const TicketPtr& ticket, JobResult result)
{
    if (result.status == JobStatus::kOk) {
        metrics_.completed.fetch_add(1, std::memory_order_relaxed);
        breaker_.recordSuccess();
    } else if (result.status == JobStatus::kFailed) {
        metrics_.failed.fetch_add(1, std::memory_order_relaxed);
        breaker_.recordFailure();
    } else {
        metrics_.cancelled.fetch_add(1, std::memory_order_relaxed);
    }
    try {
        ticket->done(std::move(result));
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

void
Scheduler::watchdogScan()
{
    std::vector<std::pair<TicketPtr, JobResult>> lost;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) return;
        for (size_t i = 0; i < slots_.size(); ++i) {
            Slot& slot = slots_[i];
            if (!slot.heartbeat || !slot.heartbeat->busy()) continue;
            const double stale = slot.heartbeat->staleMs();
            if (stale <= options_.supervisor.stall_timeout_ms) continue;
            TicketPtr ticket = slot.running;
            if (!ticket) continue;
            const int attempt = slot.running_attempt;
            int expected = attempt;
            if (!ticket->claim.compare_exchange_strong(expected,
                                                       attempt + 1)) {
                continue; // the worker beat us to it; it is not wedged
            }
            metrics_.worker_lost.fetch_add(1, std::memory_order_relaxed);

            // The wedged thread keeps running to completion (its late
            // result loses the claim CAS and is dropped); a fresh worker
            // takes over the slot, and the zombie is joined at stop().
            zombies_.push_back(std::move(slot.thread));
            spawnSlotLocked(i);
            metrics_.respawned.fetch_add(1, std::memory_order_relaxed);

            const double spent = clock_.elapsedMs(ticket->enqueued);
            const resilience::RetryDecision decision =
                resilience::decideRetry(options_.retry, ticket->seq,
                                        attempt, ErrorCode::kWorkerLost,
                                        ticket->spec.deadline_ms, spent);
            if (decision.retry) {
                ticket->attempt = attempt + 1;
                stash_.push_back(
                    {ticket, afterMs(clock_, decision.backoff_ms)});
                metrics_.retried.fetch_add(1, std::memory_order_relaxed);
            } else {
                JobResult result;
                result.status = JobStatus::kFailed;
                result.error_code = ErrorCode::kWorkerLost;
                result.error_message =
                    "worker wedged for " + std::to_string(stale) +
                    "ms; job reclaimed with no retry budget left";
                result.tag = ticket->spec.tag;
                result.queue_ms = spent;
                lost.emplace_back(std::move(ticket), std::move(result));
            }
        }
    }
    work_cv_.notify_all();
    for (auto& [ticket, result] : lost) {
        resolveFinal(ticket, std::move(result));
    }
}

} // namespace serve
} // namespace qa
