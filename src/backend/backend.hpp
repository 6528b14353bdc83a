/**
 * @file
 * Pluggable simulation-backend subsystem (DESIGN.md Sec. 11).
 *
 * A Backend turns (circuit, options, the router's analysis) into a
 * PreparedCircuit — the shot-invariant work done once — and a
 * PreparedCircuit hands out ShotSamplers — the per-worker mutable
 * scratch — so one pooled shot loop (runShotLoop) can drive any backend
 * with the engine's counter-based RNG streams. Four implementations are
 * registered:
 *
 *  - statevector: the general dense engine with prefix caching and the
 *    terminal-sampling fast path (sim/engine.hpp's ShotPlan); O(2^n)
 *    per gate.
 *  - density_matrix: exact channel evolution of rho with sampling from
 *    the final diagonal; O(4^n) per gate, shots nearly free; terminal
 *    measurements only.
 *  - stabilizer: Aaronson-Gottesman tableau for Clifford circuits
 *    (including recognized-matrix Cliffords and Pauli/readout noise);
 *    O(n) per gate row-update, O(n^2) per measurement.
 *  - mps: bond-dimension-capped matrix product state (mps/mps_state.hpp)
 *    for wide low-entanglement circuits; O(chi^3) per 2q gate, SWAP
 *    routing for long-range pairs, tracked truncation error.
 *
 * Determinism contract: for a fixed resolved backend, counts are
 * bit-identical across thread counts (per-shot RNG streams). Across
 * different backends, counts agree in distribution only — never compare
 * them bit-wise.
 */
#ifndef QA_BACKEND_BACKEND_HPP
#define QA_BACKEND_BACKEND_HPP

#include <memory>
#include <string>
#include <vector>

#include "backend/router.hpp"
#include "common/rng.hpp"
#include "sim/options.hpp"
#include "sim/result.hpp"
#include "sim/statevector.hpp"

namespace qa
{
namespace backend
{

/**
 * Per-worker shot sampler: owns the mutable scratch one pool worker
 * needs, so concurrent samplers from the same PreparedCircuit never
 * share state. runOne draws only from the caller's Rng — one shot is
 * deterministic given the stream.
 */
class ShotSampler
{
  public:
    virtual ~ShotSampler() = default;

    /** Execute one shot and return the classical bitstring. */
    virtual std::string runOne(Rng& rng) = 0;
};

/**
 * The shot-invariant preparation of one job on one backend: circuit
 * analysis, prefix/tableau evolution, exact density evolution —
 * whatever the backend computes once and every shot reuses. Immutable
 * after construction; makeSampler() is thread-safe.
 */
class PreparedCircuit
{
  public:
    virtual ~PreparedCircuit() = default;

    virtual std::unique_ptr<ShotSampler> makeSampler() const = 0;

    /**
     * Cumulative truncation error the preparation accepted (discarded
     * Schmidt weight for the MPS backend's shared prefix). Exact
     * backends return 0.0. Deterministic — shot-loop truncation is
     * deliberately not aggregated here, so the value is identical for
     * any thread count.
     */
    virtual double truncationError() const { return 0.0; }
};

/**
 * A simulation backend. Stateless and shared (backendFor returns
 * process-lifetime singletons); all per-job state lives in the
 * PreparedCircuit. prepare() borrows the circuit and options.noise —
 * both must outlive the prepared run — and throws UserError when the
 * job is outside the backend's capabilities (the router exists to avoid
 * that, but direct callers get a clear error).
 */
class Backend
{
  public:
    virtual ~Backend() = default;

    /**
     * Prepare from the router's analysis of `circuit` under `options`
     * (analyzeForRouting): the dense backends take the profile and the
     * fused stream from it instead of recomputing them.
     */
    virtual std::shared_ptr<const PreparedCircuit>
    prepare(const QuantumCircuit& circuit, const SimOptions& options,
            const CircuitAnalysis& analysis) const = 0;

    /** Analyze, then prepare: for callers that did not route first. */
    std::shared_ptr<const PreparedCircuit>
    prepare(const QuantumCircuit& circuit, const SimOptions& options) const;

    /** prepare + runPrepared: the one-call form. */
    Counts runShots(const QuantumCircuit& circuit,
                    const SimOptions& options) const;
};

/** The registered backend singleton for a kind. */
const Backend& backendFor(BackendKind kind);

/**
 * How the shot loop treats assertion slots (a shot flags slot i when a
 * bit of slot_clbits[i] reads '1'); core/runner.hpp maps each policy
 * onto these. Attempt a of shot s draws Rng::forStream(seed,
 * s * attempts + a); a flagged attempt is redrawn while attempts last.
 */
struct ShotRules
{
    std::vector<std::vector<int>> slot_clbits;
    int attempts = 1;
    bool keep_flagged = false; ///< Keep a shot whose last attempt flags.
    bool stop_on_flag = false; ///< Serial, stop at the first flag.
};

/** What one shot loop produced. */
struct ShotTally
{
    /** Kept shots over every classical bit (truncated by a deadline). */
    Counts kept;

    std::vector<long> slot_errors; ///< First-attempt flags per slot.
    long passed = 0;   ///< Shots whose first attempt flagged nothing.
    long retries = 0;  ///< Attempts redrawn after a flagged one.
    int completed = 0; ///< Shots whose first attempt ran.
};

/**
 * The one shot loop every run goes through. Shot s executes
 * variants[s % variants.size()] (all prepared on one backend) with one
 * sampler per variant per worker, created on first use. Shots are
 * independent bodies keyed by their index, so the tally is bit-identical
 * for any options.num_threads; options.deadline_ms truncates
 * cooperatively (partial tally flagged `truncated`).
 */
ShotTally runShotLoop(const std::vector<const PreparedCircuit*>& variants,
                      const ShotRules& rules, const SimOptions& options);

/**
 * runShotLoop over one prepared circuit with default rules: the counts
 * of every completed shot, Rng::forStream(seed, shot) per shot.
 */
Counts runPrepared(const PreparedCircuit& prepared,
                   const SimOptions& options);

/**
 * Prepare a routed circuit on its chosen backend, reusing the route's
 * analysis. Throws UserError (kBadRequest) when an explicit backend
 * request cannot run the job; auto routes are always capable.
 */
std::shared_ptr<const PreparedCircuit>
prepareRouted(const QuantumCircuit& circuit, const SimOptions& options,
              const Route& route);

namespace detail
{
// Singleton accessors for the registered implementations (one per
// translation unit under src/backend/); reach them via backendFor.
const Backend& statevectorBackend();
const Backend& densityMatrixBackend();
const Backend& stabilizerBackend();
const Backend& mpsBackend();
} // namespace detail

} // namespace backend
} // namespace qa

#endif // QA_BACKEND_BACKEND_HPP
