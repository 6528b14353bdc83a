/**
 * @file
 * Per-job backend routing: given a circuit and run options, pick the
 * cheapest capable simulation backend.
 *
 * Routing is a pure function of the circuit structure, the noise model,
 * and the run options it reads (shots, explicit backend request, MPS
 * chi cap and tolerance) — never of wall-clock, thread count, or RNG
 * state. The serve layer's cache key absorbs every one of those inputs,
 * so the key itself never has to route.
 *
 * route() analyzes a circuit once — profile, entanglement, shot plan,
 * fused stream — and hands that analysis on with the decision. The
 * analysis alone decides what a dense backend's prepare() executes, so
 * no backend repeats it. Routing never throws: an explicit request for
 * a backend that cannot run the job comes back with `capable == false`
 * and a reason, and the caller decides how to surface the error.
 */
#ifndef QA_BACKEND_ROUTER_HPP
#define QA_BACKEND_ROUTER_HPP

#include <optional>
#include <string>

#include "backend/analyzer.hpp"
#include "sim/engine.hpp"
#include "sim/fusion.hpp"
#include "sim/options.hpp"

namespace qa
{
namespace backend
{

/**
 * Density-matrix memory wall: 4^n complex doubles. The density backend
 * refuses wider circuits, and routing never sends them there.
 */
inline constexpr int kDensityMaxQubits = 8;

/** The routing decision for one job, recorded in results and metrics. */
struct BackendChoice
{
    /** The resolved backend (the requested one for explicit requests). */
    BackendKind backend = BackendKind::kStatevector;

    /** True when the caller forced the backend instead of auto-routing. */
    bool explicit_request = false;

    /**
     * False when an explicitly requested backend cannot run the job
     * (e.g. stabilizer for a T-gate circuit). Auto-routed choices are
     * always capable. Executing an incapable choice is the caller's
     * error to raise.
     */
    bool capable = true;

    /** Circuit classification behind the decision. */
    CircuitClass klass = CircuitClass::kGeneral;

    /** Non-Clifford gate count found by the analyzer. */
    int non_clifford_gates = 0;

    /**
     * True when the analysis carries a fused stream, which route()
     * always builds. Per-gate Kraus noise still keeps the dense
     * backends on the raw gates at prepare time.
     */
    bool fusion_enabled = false;

    /**
     * What the fusion pass does to this circuit's full stream.
     * Deterministic — safe to absorb into cache keys and explain
     * output.
     */
    FusionStats fusion;

    /**
     * MPS cost-model facts, filled for every routed job (pure function
     * of circuit and options, whatever backend wins): the bond cap a
     * chi-capped run would actually reach, the entanglement width of
     * the 2q-connectivity graph across the line ordering, and the
     * estimated truncation-error bound at the configured cap.
     */
    int mps_chi = 1;
    int mps_ent_width = 0;
    double mps_trunc_bound = 0.0;

    /** Human-readable explanation of the decision (one sentence). */
    std::string reason;
};

/**
 * What routing learns about one circuit. route() computes it once and
 * prepare() consumes it, so no backend repeats the analysis or the
 * fusion pass. It is also the one thing that decides what a dense
 * backend executes: the statevector and density backends fuse exactly
 * when `fused` is present and `plan.kraus_noise` is false, and the
 * statevector backend splits and samples as `plan` says.
 *
 * Tests reach the reference executions through this seam: `fused`
 * reset runs the raw gates, and a default ShotPlan as well (split 0,
 * no terminal sampling) replays every instruction per shot.
 */
struct CircuitAnalysis
{
    CircuitProfile profile;
    EntanglementProfile entanglement;

    /** Where the shot-invariant prefix ends, and terminal sampling. */
    ShotPlan plan;

    /**
     * The whole-circuit fused stream (defaults::kFusionMaxQubits).
     * Measurements and resets flush every fusion group, so the stream
     * splits at the first of them into exactly the fused prefix and
     * the fused suffix.
     */
    std::optional<FusedProgram> fused;

    /** plan.split in the fused stream: its first measurement or reset. */
    size_t fused_split = 0;
};

/**
 * Analyze a circuit for routing and prepare: profile, entanglement,
 * shot plan under options.noise, and the fused stream. Pure, never
 * throws.
 */
CircuitAnalysis analyzeForRouting(const QuantumCircuit& circuit,
                                  const SimOptions& options);

/** A routing decision plus the analysis it was made from. */
struct Route
{
    BackendChoice choice;
    CircuitAnalysis analysis;
};

/**
 * Route one shot-execution job. Considers, in order: an explicit
 * `options.backend` request (validated, never overridden), the
 * stabilizer fast path (Clifford circuit, noise absent or
 * Pauli/readout only), the chi-capped MPS backend (wide,
 * low-entanglement, noise-free gates), the density-matrix backend
 * (non-Pauli channels on a small terminal-measurement circuit where
 * exact channel evolution beats per-shot trajectory replay), and
 * finally the general statevector engine. Never throws.
 */
Route route(const QuantumCircuit& circuit, const SimOptions& options);

/** The decision alone: route(circuit, options).choice. */
BackendChoice routeShots(const QuantumCircuit& circuit,
                         const SimOptions& options);

/**
 * Relative cost of executing one extra gate on a backend at the given
 * circuit width: O(n) for the tableau, O(2^n) / O(4^n) for the dense
 * backends (exponents clamped to keep the weight finite). The
 * assertion compiler multiplies a candidate lowering's gate count by
 * this weight — under the backend the instrumented circuit would route
 * to — to compare executable forms on equal footing. Deterministic,
 * like everything else in this header.
 */
double assertionGateWeight(BackendKind kind, int num_qubits);

/**
 * Multi-line human-readable report of a route: circuit profile, noise
 * profile, fusion plan, per-backend capability verdicts, and the chosen
 * backend with its reason. Powers the qa_explain tool; executes nothing.
 */
std::string explainRouting(const Route& route, const SimOptions& options);

} // namespace backend
} // namespace qa

#endif // QA_BACKEND_ROUTER_HPP
