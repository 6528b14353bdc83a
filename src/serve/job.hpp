/**
 * @file
 * Assertion-service job model: what a caller submits (JobSpec), what
 * comes back (JobResult), the canonical cache key over a spec, and the
 * pure execution function the scheduler workers dispatch.
 *
 * Determinism contract: executeJob is a pure function of the spec —
 * every stochastic draw comes from counter-based per-shot RNG streams
 * seeded by `spec.seed` (sim/engine.hpp) — so a job's result is
 * bit-identical regardless of which worker runs it, how many workers
 * the scheduler has, or the order jobs arrive in. The only exception is
 * a deadline truncation (which shots finish depends on wall-clock
 * timing); truncated results are therefore never cached.
 */
#ifndef QA_SERVE_JOB_HPP
#define QA_SERVE_JOB_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "acomp/compiler.hpp"
#include "acomp/run.hpp"
#include "circuit/circuit.hpp"
#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "backend/router.hpp"
#include "core/asserted_program.hpp"
#include "core/runner.hpp"
#include "sim/noise.hpp"
#include "sim/options.hpp"
#include "sim/result.hpp"

namespace qa
{
namespace serve
{

/**
 * One unit of service work: a circuit (or a full AssertedProgram), the
 * assertion slots to post-select on, a recovery policy, and the
 * execution knobs (shots, seed, deadline, priority).
 */
struct JobSpec
{
    /**
     * Circuit to execute (assertion fragments already inserted). Ignored
     * when `program` is set.
     */
    QuantumCircuit circuit{1};

    /**
     * Policy-aware path for in-process callers: when set, the job runs
     * runAssertedPolicy over the program (full abort/discard/retry/
     * repair support) instead of plain shot sampling. Shared so queued
     * copies of a job stay cheap.
     */
    std::shared_ptr<const AssertedProgram> program;

    /**
     * Assertion slots for the plain-circuit path: each inner vector
     * lists the classical bits of one slot (|0...0> = pass). The result
     * reports per-slot error rates and a histogram post-selected on
     * every slot passing. Only AssertionPolicy::kDiscard semantics are
     * available on this path; use `program` for the rest.
     */
    std::vector<std::vector<int>> assert_clbits;

    /** Recovery policy (program path; plain path must use kDiscard). */
    AssertionPolicy policy = AssertionPolicy::kDiscard;

    /** Attempt budget per shot under AssertionPolicy::kRetry. */
    int max_attempts = 3;

    /** Gate/readout noise; applied when enabled(). */
    NoiseModel noise;

    /**
     * Simulation-backend request: kAuto lets the router pick the
     * cheapest capable backend; an explicit kind is honored or the job
     * fails with kBadRequest when that backend cannot run it.
     */
    BackendRequest backend = defaults::kBackend;

    int shots = defaults::kShots;
    uint64_t seed = defaults::kSeed;

    /**
     * MPS backend knobs: the bond-dimension cap and the truncation
     * tolerance the router's capability check enforces. Both are
     * routing inputs when the request is auto or mps, and only then
     * absorbed into the cache key (an explicit exact backend ignores
     * them).
     */
    int mps_chi = defaults::kMpsChi;
    double mps_trunc_tol = defaults::kMpsTruncTol;

    /**
     * Threads for the job's own shot loop. The default keeps the
     * scheduler's worker pool as the only parallelism; raise it for
     * huge single jobs on an otherwise idle service.
     */
    int num_threads = defaults::kServeThreads;

    /** Per-job wall-clock budget (PR 2 cooperative cancellation). */
    double deadline_ms = 0.0;

    /** Higher runs first; FIFO within a priority level. */
    int priority = 0;

    /** Opt out of the cross-job result cache for this job. */
    bool use_cache = true;

    /**
     * Assertion-compiler path: treat `circuit` as a raw, assertion-free
     * program, discover invariants with acomp::generateAssertions, and
     * execute the lowered instrumented variants under `policy`.
     * Conflicts with `program` and with explicit `assert_clbits` slots
     * (kBadRequest). Absorbed into the cache key.
     */
    bool auto_assert = false;

    /** Lowering request for auto_assert slots; absorbed into the key. */
    acomp::LoweringRequest assert_lowering = acomp::LoweringRequest::kAuto;

    /**
     * Per-instruction source positions of `circuit` when it arrived as
     * QASM text (wire path) — anchors kUnsupportedAssertion diagnostics
     * and generated-slot reports to the submitted source. Not keyed
     * (pure metadata).
     */
    std::vector<QasmPos> qasm_positions;

    /** Caller-chosen label echoed in the result; not part of the key. */
    std::string tag;
};

/** Terminal state of a job. */
enum class JobStatus
{
    kOk,       ///< Executed (possibly truncated by its deadline).
    kFailed,   ///< Execution threw; see error_code/error_message.
    kCancelled ///< Scheduler stopped before the job ran.
};

/** Stable wire name of a job status. */
const char* jobStatusName(JobStatus status);

/** What the service hands back for one job. */
struct JobResult
{
    JobStatus status = JobStatus::kOk;

    /**
     * Raw histogram over every classical bit: the policy's accepted
     * shots for AssertedProgram and auto_assert jobs, every completed
     * shot for plain circuits (assert_clbits slots only post-select
     * program_counts).
     */
    Counts counts;

    /**
     * Program-output histogram: post-selected on all slots passing and
     * restricted to the non-assertion classical bits (plain path), or
     * the policy runner's accepted program counts (program path).
     * Equals `counts` when the job has no assertion slots.
     */
    Counts program_counts;

    /** Fraction of completed shots flagging each slot. */
    std::vector<double> slot_error_rate;

    /** Fraction of completed shots with no flagged slot. */
    double pass_rate = 1.0;

    /** True when the per-job deadline truncated the run. */
    bool truncated = false;

    /** True when the result came from the cross-job cache. */
    bool cache_hit = false;

    /** Which simulation backend the router resolved for this job. */
    backend::BackendChoice backend;

    /**
     * Cumulative truncation error the MPS preparation accepted
     * (discarded Schmidt weight of the shared prefix); 0.0 on exact
     * backends. Part of the deterministic payload.
     */
    double mps_truncation_error = 0.0;

    /** Failure classification when status == kFailed/kCancelled. */
    ErrorCode error_code = ErrorCode::kGeneric;
    std::string error_message;

    /** Milliseconds spent queued before a worker picked the job up. */
    double queue_ms = 0.0;

    /** Milliseconds spent executing (0 on a cache hit). */
    double exec_ms = 0.0;

    /**
     * Lowered assertion slots (auto_assert jobs): form, invariant
     * class, position, and resource budget per generated slot. Empty
     * when the generator found nothing to assert.
     */
    std::vector<acomp::SlotSummary> assertions;

    /** Sub-circuit variants executed round-robin (1 unless a slot
     *  lowered to kPauliSample). */
    int assert_variants = 1;

    /** Echo of JobSpec::tag. */
    std::string tag;
};

/**
 * Canonical cache key: a structural hash over everything the result
 * depends on (circuit or program structure, slots, policy, noise
 * fingerprint, shots, seed) and every input routing reads (the backend
 * request, plus mps_chi and mps_tol when the request is auto or mps),
 * and nothing else (num_threads — results are bit-identical for any
 * thread count on a fixed backend — deadline, priority, tag).
 * Cross-thread-count and cross-deadline submissions therefore share
 * cache entries safely.
 *
 * The key covers every routing input, so it never routes: routing is a
 * pure function of the keyed fields, and equal keys resolve to the same
 * backend. An explicit request keys apart from an auto submission even
 * when the router would pick the same backend. Never throws.
 */
Hash128 jobKey(const JobSpec& spec);

/**
 * The plan step of a job: compile when auto_assert is set, then route
 * the circuit the job executes first (compiled variant 0, the program
 * circuit, or the plain circuit). executeJob runs it; the wire explain
 * op reports it. Throws UserError(kBadRequest) when auto_assert
 * conflicts with a program or with assert_clbits, and what the
 * assertion compiler throws.
 */
acomp::PlannedRun planJob(const JobSpec& spec);

/**
 * Execute one job synchronously on the calling thread (the scheduler
 * workers' dispatch target, also usable directly as the uncached
 * reference). Throws UserError on invalid specs (bad noise model,
 * unsupported policy/slot combination, non-positive shots).
 */
JobResult executeJob(const JobSpec& spec);

/**
 * 128-bit digest of a result's deterministic payload: status, counts,
 * program counts, slot error rates, pass rate, truncation flag, and —
 * for failures — the error code. Timing (queue_ms/exec_ms), cache_hit,
 * and the tag are excluded, so two executions of the same JobSpec hash
 * identically. Journal completion records carry this digest; replay
 * recomputes it to prove bit-identical re-execution.
 */
Hash128 payloadHash(const JobResult& result);

} // namespace serve
} // namespace qa

#endif // QA_SERVE_JOB_HPP
