/**
 * @file
 * Retry policy for transient service-job failures.
 *
 * Two properties matter for the serving path:
 *  - **Determinism**: backoff jitter is counter-based (splitmix64 over
 *    (seed, job seq, attempt)), never wall-clock- or thread-seeded, so a
 *    replayed job schedule produces the same backoff sequence and tests
 *    can assert on exact delays.
 *  - **Bounded work**: attempts are capped, and every retry's backoff
 *    plus execution time is deducted from the job's own deadline budget
 *    — a job with 50ms of deadline left never schedules a 100ms backoff;
 *    it fails now with the error it already has.
 *
 * Only transient failures retry. A typed UserError that names a caller
 * mistake (kBadRequest, kPolicyUnsupported, ...) will fail identically
 * on every attempt; retrying it only burns workers.
 */
#ifndef QA_RESILIENCE_RETRY_HPP
#define QA_RESILIENCE_RETRY_HPP

#include <cstdint>

#include "common/error.hpp"

namespace qa
{
namespace resilience
{

/** Retry sizing knobs (defaults: 3 attempts, 1ms..100ms backoff). */
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
 * True for failures that can plausibly succeed on a clean re-execution:
 * a lost worker, a propagated worker-pool failure, or an unclassified
 * exception (kGeneric — thrown infrastructure errors land there).
 * Typed caller mistakes and out-of-memory (kResourceExhausted) are
 * permanent.
 */
bool isTransientError(ErrorCode code);

/**
 * Deterministic jittered backoff before retry number `retry` (1-based)
 * of job `job_seq`: base * 2^(retry-1), capped at max, scaled by a
 * [0.5, 1.0) factor drawn from the counter-based jitter stream.
 */
double retryBackoffMs(const RetryOptions& options, uint64_t job_seq,
                      int retry);

/** What the scheduler should do with a failed attempt. */
struct RetryDecision
{
    bool retry = false;

    /** Backoff before the next attempt (valid when retry). */
    double backoff_ms = 0.0;
};

/**
 * Decide whether attempt `failed_attempt` (0-based) of job `job_seq`
 * should be retried: the error must be transient, attempts must remain,
 * and — when the job has a deadline — the backoff must fit inside the
 * remaining budget (`deadline_ms` - `spent_ms`; `deadline_ms` <= 0
 * means unbounded).
 */
RetryDecision decideRetry(const RetryOptions& options, uint64_t job_seq,
                          int failed_attempt, ErrorCode code,
                          double deadline_ms, double spent_ms);

} // namespace resilience
} // namespace qa

#endif // QA_RESILIENCE_RETRY_HPP
