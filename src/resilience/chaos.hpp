/**
 * @file
 * Chaos-testing harness for the assertion service: deterministic
 * service-level fault plans plus an adversarial wire-input corpus.
 *
 * Mirrors the src/inject philosophy at the service layer: a fault plan
 * is a pure function of (seed, job sequence number, attempt) — no
 * hidden randomness — so a chaos run is reproducible and a failure
 * found under chaos can be replayed exactly. Where src/inject perturbs
 * circuits (Pauli/flip/drop/duplicate at enumerated sites), this file
 * perturbs the *serving* of jobs: worker stalls (exercising the
 * watchdog), thrown job functions (exercising retry and the breaker),
 * and hostile wire input (exercising the parser and admission).
 *
 * The plan plugs into SchedulerOptions::exec_hook; the corpus feeds the
 * JSON/wire layer directly. Journal-tail truncation — the fourth fault
 * family — is a file operation (chopFileTail) applied between a kill
 * and a replay.
 */
#ifndef QA_RESILIENCE_CHAOS_HPP
#define QA_RESILIENCE_CHAOS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace qa
{
namespace resilience
{

/** Service-level fault families. */
enum class ServiceFaultKind
{
    kNone,        ///< Execute cleanly.
    kWorkerStall, ///< Wedge the worker mid-job (sleep past the watchdog).
    kJobThrow     ///< Throw from the job function (transient failure).
};

/** Stable human-readable fault-kind name. */
const char* serviceFaultName(ServiceFaultKind kind);

/** One planned fault at a (job, attempt) site. */
struct ServiceFault
{
    ServiceFaultKind kind = ServiceFaultKind::kNone;

    /** Stall duration for kWorkerStall. */
    double stall_ms = 0.0;
};

/** Chaos mix knobs. */
struct ChaosOptions
{
    uint64_t seed = 1;

    /** Probability a job's first attempt stalls its worker. */
    double p_stall = 0.0;

    /** Probability a job's first attempt throws. */
    double p_throw = 0.0;

    /** Stall duration (must exceed the watchdog stall timeout). */
    double stall_ms = 100.0;

    /**
     * Inject only on attempt 0, so a retried job runs clean and the
     * recovery path is observable end-to-end. False makes every attempt
     * of a chosen job fault (exercises attempt exhaustion).
     */
    bool first_attempt_only = true;
};

/** Deterministic per-(job, attempt) fault plan. */
class ChaosPlan
{
  public:
    explicit ChaosPlan(ChaosOptions options = {}) : options_(options) {}

    /**
     * The fault (possibly kNone) for attempt `attempt` of the job with
     * admission sequence number `job_seq`. Pure function of
     * (seed, job_seq, attempt) — counter-based like the engine's RNG
     * streams, so the plan never depends on scheduling.
     */
    ServiceFault at(uint64_t job_seq, int attempt) const;

    /** Count of jobs in [0, njobs) whose first attempt faults. */
    size_t plannedFaults(uint64_t njobs) const;

    const ChaosOptions& options() const { return options_; }

  private:
    ChaosOptions options_;
};

/**
 * Truncate the last `bytes` bytes of a file (simulates a crash torn
 * tail on a journal). Throws UserError when the file cannot be opened;
 * truncating more than the file holds empties it.
 */
void chopFileTail(const std::string& path, size_t bytes);

/** One adversarial wire payload and what the service must do with it. */
struct AdversarialPayload
{
    std::string payload;

    /**
     * True: the line must be rejected with a typed UserError
     * (kBadRequest or kQasmSyntax). False: the line may parse — the
     * requirement is only that nothing crashes, throws untyped, or
     * trips ASan.
     */
    bool must_fail = true;

    const char* why = "";
};

/**
 * The malformed-input corpus: truncated documents, deep nesting,
 * duplicate keys, bad numbers, invalid UTF-8/escapes, wrong-typed or
 * unknown fields, hostile sizes. Shared by the corpus test and the chaos
 * harness's wire-fuzz pass.
 */
const std::vector<AdversarialPayload>& adversarialWireCorpus();

} // namespace resilience
} // namespace qa

#endif // QA_RESILIENCE_CHAOS_HPP
