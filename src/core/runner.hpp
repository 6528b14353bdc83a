/**
 * @file
 * Assertion execution and reporting: run an AssertedProgram (sampled or
 * exact, with or without noise), compute per-slot assertion-error rates,
 * and post-select the program's outcomes on assertion success — the
 * error-filtering use of assertions the paper measures in Sec. IX-B.
 *
 * Every sampled run executes each shot once, on its own stream
 * (backend::runPrepared), and reads its slots afterwards from the
 * all-shot histogram through one function, postSelect, which only
 * runPolicy calls. Every run reports the same shape: `raw` holds every
 * completed shot, slot_error_rate and pass_rate are shares of those
 * shots, and `program_counts` is the accepted view — the passing
 * shots' program marginal under discard, every shot's under repair.
 */
#ifndef QA_CORE_RUNNER_HPP
#define QA_CORE_RUNNER_HPP

#include "backend/router.hpp"
#include "core/asserted_program.hpp"
#include "sim/noise.hpp"
#include "sim/result.hpp"
#include "sim/statevector.hpp"

namespace qa
{

/** Sampled (shot-based) assertion run report. */
struct AssertionOutcome
{
    /** Fraction of shots where the slot flagged an error. */
    std::vector<double> slot_error_rate;

    /** Fraction of shots where no assertion flagged an error. */
    double pass_rate = 1.0;

    /** Program-clbit histogram over all shots. */
    Counts program_counts;

    /** Program-clbit histogram post-selected on assertion success. */
    Counts program_counts_passed;

    /** Full raw histogram over every classical bit. */
    Counts raw;
};

/**
 * Run the program's circuit on its routed backend under kDiscard
 * (runAssertedPolicy), adding the all-shot program marginal.
 */
AssertionOutcome runAsserted(const AssertedProgram& program,
                             const SimOptions& options);

/** Exact (probability) assertion run report. */
struct AssertionOutcomeExact
{
    std::vector<double> slot_error_prob;
    double pass_prob = 1.0;
    Distribution program_dist;
    Distribution program_dist_passed;
    Distribution raw;
};

/**
 * Exact distribution run through the exact engine (sim/exact.hpp): a
 * pure-state walk when `noise` is null or disabled, the density-matrix
 * walk with exact channels and readout error otherwise.
 */
AssertionOutcomeExact runAssertedExact(const AssertedProgram& program,
                                       const NoiseModel* noise = nullptr);

/**
 * Which shots of a run a policy accepts. Both policies run the same
 * shots; they differ only in the view of the one histogram they report.
 */
enum class AssertionPolicy
{
    /** Post-select: drop flagged shots from the program output (the
     *  paper's Sec. IX-B filtering; the default). */
    kDiscard,

    /** Keep flagged shots: valid when every slot uses the SWAP-based
     *  design, which re-prepares the asserted state on the tested
     *  qubits regardless of the measured outcome (Sec. IV), so the
     *  program continued from a repaired state. */
    kRepair
};

/** Human-readable policy name. */
const char* policyName(AssertionPolicy policy);

/** Recovery-policy configuration for runAssertedPolicy. */
struct PolicyOptions
{
    AssertionPolicy policy = AssertionPolicy::kDiscard;

    /**
     * Read by nothing: kept so perfbench/cpp/trace.cpp, which assigns
     * it, still compiles (ROADMAP item 10).
     */
    int max_attempts = 3;
};

/**
 * Shot-level report of a policy run. `raw` and the detector statistics
 * (slot_error_rate, pass_rate) cover every completed shot; the policy
 * only decides which shots reach `program_counts`.
 */
struct PolicyOutcome
{
    /** Accepted shots' program-clbit histogram: the passing shots under
     *  kDiscard, every completed shot under kRepair. */
    Counts program_counts;

    /** Every completed shot's histogram over every classical bit. */
    Counts raw;

    /** Fraction of completed shots flagging each slot. */
    std::vector<double> slot_error_rate;

    /** Fraction of completed shots with no flagged slot. */
    double pass_rate = 1.0;

    /** True when the deadline cancelled the run before all shots ran. */
    bool truncated = false;

    /** Which simulation backend the router resolved for this run. */
    backend::BackendChoice backend;

    /**
     * Cumulative prepare-time truncation error when the run resolved to
     * the MPS backend; 0.0 on the exact backends. Deterministic for any
     * thread count.
     */
    double mps_truncation_error = 0.0;
};

/**
 * What one policy run executes: every shot runs `circuit`, slot verdicts
 * are read from `slot_clbits` (all-zero = pass), and the accepted
 * program histogram is the marginal over `program_clbits`. Every job
 * shape reduces to this — an AssertedProgram, a compiled acomp program,
 * or a plain circuit — so every job runs through the same policy loop.
 * The circuit is borrowed and must outlive the run.
 */
struct PolicyJob
{
    const QuantumCircuit* circuit = nullptr;
    std::vector<std::vector<int>> slot_clbits;
    std::vector<int> program_clbits;

    /** Every slot restores the asserted state (required by kRepair). */
    bool repair_supported = false;
};

/** The policy job of an AssertedProgram (repair needs all-SWAP slots). */
PolicyJob policyJob(const AssertedProgram& program);

/**
 * Run a policy job. `route` is the route of job.circuit under `options`
 * (backend::route); the circuit is prepared on its backend, reusing its
 * analysis, every shot runs once (backend::runPrepared), and the
 * histogram is read through the slots (postSelect). kDiscard accepts
 * the passed shots, kRepair every shot. Throws UserError(kBadRequest)
 * when an explicitly requested backend cannot run it, and
 * UserError(kPolicyUnsupported) for kRepair without repair_supported.
 */
PolicyOutcome runPolicy(const PolicyJob& job, const backend::Route& route,
                        const SimOptions& options,
                        const PolicyOptions& policy);

/**
 * Run the program's circuit shot by shot under `policy` (runPolicy).
 * Seeded runs are bit-identical for any thread count (per-shot
 * counter-based RNG streams) unless truncated by options.deadline_ms.
 * kRepair requires every slot to use the SWAP-based design and throws
 * UserError (ErrorCode::kPolicyUnsupported) otherwise.
 */
PolicyOutcome runAssertedPolicy(const AssertedProgram& program,
                                const SimOptions& options,
                                const PolicyOptions& policy);

} // namespace qa

#endif // QA_CORE_RUNNER_HPP
