/**
 * @file
 * Jittered exponential backoff for the fleet router.
 *
 * qa_router waits out a shard's refusal (queue_full, service_stopped)
 * or a park with no admitting shard on this schedule, and re-dials or
 * respawns a dead shard on a slower one. Nothing retries a job that
 * ran: a job's result is a pure function of its spec, so a failed run
 * would only fail again.
 *
 * The jitter is counter-based (splitmix64 over (seed, sequence number,
 * retry)), never wall-clock- or thread-seeded, so a replayed schedule
 * produces the same backoff sequence and tests can assert on exact
 * delays.
 */
#ifndef QA_RESILIENCE_RETRY_HPP
#define QA_RESILIENCE_RETRY_HPP

#include <cstdint>

namespace qa
{
namespace resilience
{

/** Backoff sizing knobs (defaults: 3 attempts, 1ms..100ms backoff). */
struct RetryOptions
{
    /** Total attempts including the first; 1 disables retries. */
    int max_attempts = 3;

    /** Backoff before the first retry (doubles each further retry). */
    double base_backoff_ms = 1.0;

    /** Exponential-backoff ceiling. */
    double max_backoff_ms = 100.0;

    /** Jitter stream seed; fixed default keeps schedules reproducible. */
    uint64_t jitter_seed = 0x726574727953ULL; // "retryS"
};

/**
 * Deterministic jittered backoff before retry number `retry` (1-based)
 * of job `job_seq`: base * 2^(retry-1), capped at max, scaled by a
 * [0.5, 1.0) factor drawn from the counter-based jitter stream.
 */
double retryBackoffMs(const RetryOptions& options, uint64_t job_seq,
                      int retry);

} // namespace resilience
} // namespace qa

#endif // QA_RESILIENCE_RETRY_HPP
