/**
 * @file
 * Pluggable simulation-backend subsystem (DESIGN.md Sec. 11).
 *
 * A Backend turns (circuit, options, the router's analysis) into a
 * PreparedCircuit — the shot-invariant work done once — and a
 * PreparedCircuit hands out ShotSamplers — the per-worker mutable
 * scratch — so one pooled shot loop (runPrepared) can drive any backend
 * with the engine's counter-based RNG streams. There is one Backend
 * class; its kind selects one of four prepare functions, each in its
 * own translation unit under src/backend/, and every prepared circuit
 * hands out the one sampler template (detail::PreparedBase). The three
 * replaying kinds (statevector, stabilizer, MPS) share one suffix
 * replay, backend/suffix_replay.hpp. The four kinds:
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
 *
 * A replaying sampler (statevector, stabilizer, MPS) also owns an
 * outcome trie (backend/outcome_trie.hpp) of the paths its earlier
 * shots took, and the shared suffix replay (backend/suffix_replay.hpp)
 * answers a shot from it when it can. A hit makes exactly the draws the
 * replay would, so a sampler's history never changes what runOne
 * returns for a given stream.
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
 * A simulation backend: one per BackendKind, shared for the process
 * lifetime (backendFor); all per-job state lives in the
 * PreparedCircuit. prepare() borrows the circuit and options.noise —
 * both must outlive the prepared run — and throws UserError when the
 * job is outside the backend's capabilities (the router exists to avoid
 * that, but direct callers get a clear error).
 */
class Backend
{
  public:
    explicit Backend(BackendKind kind) : kind_(kind) {}

    /**
     * Prepare from the router's analysis of `circuit` under `options`
     * (analyzeForRouting): every backend takes the prefix split from
     * its shot plan, and the dense backends the fused stream, instead
     * of recomputing them, so each runs exactly what it describes (see
     * CircuitAnalysis).
     */
    std::shared_ptr<const PreparedCircuit>
    prepare(const QuantumCircuit& circuit, const SimOptions& options,
            const CircuitAnalysis& analysis) const;

    /** Analyze, then prepare: for callers that did not route first. */
    std::shared_ptr<const PreparedCircuit>
    prepare(const QuantumCircuit& circuit, const SimOptions& options) const;

    /** prepare + runPrepared: the one-call form. */
    Counts runShots(const QuantumCircuit& circuit,
                    const SimOptions& options) const;

  private:
    BackendKind kind_;
};

/** The backend of a kind. */
const Backend& backendFor(BackendKind kind);

/**
 * The one shot loop every run goes through: shot s executes `prepared`
 * on its own stream, Rng::forStream(options.seed, s), with one sampler
 * per worker created on first use, and every completed shot lands in
 * the returned histogram. Shots are independent bodies keyed by their
 * index, so the counts are bit-identical for any options.num_threads;
 * options.deadline_ms truncates cooperatively (the partial histogram is
 * flagged `truncated`). Assertion slots are read afterwards, from the
 * histogram (core/runner.hpp postSelect).
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

/**
 * A PreparedCircuit whose samplers are the one sampler template: the
 * prepared circuit and one worker's `Derived::Scratch`
 * (default-constructed), driven through
 * `Derived::runShot(Scratch&, Rng&) const`.
 */
template <typename Derived>
class PreparedBase : public PreparedCircuit
{
  public:
    std::unique_ptr<ShotSampler>
    makeSampler() const final
    {
        return std::make_unique<Sampler>(static_cast<const Derived&>(*this));
    }

  private:
    struct Sampler final : ShotSampler
    {
        explicit Sampler(const Derived& p) : prepared(p) {}

        std::string
        runOne(Rng& rng) override
        {
            return prepared.runShot(scratch, rng);
        }

        const Derived& prepared;
        typename Derived::Scratch scratch;
    };
};

/** Backend::prepare for one kind, one per file under src/backend/. */
using PrepareFn = std::shared_ptr<const PreparedCircuit>(
    const QuantumCircuit&, const SimOptions&, const CircuitAnalysis&);
PrepareFn prepareStatevector, prepareDensityMatrix, prepareStabilizer,
    prepareMps;

} // namespace detail

} // namespace backend
} // namespace qa

#endif // QA_BACKEND_BACKEND_HPP
