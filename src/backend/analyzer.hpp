/**
 * @file
 * Circuit and noise analysis for backend routing: classify a circuit by
 * its Clifford content and measurement structure, and a noise model by
 * whether its channels are Pauli mixtures, so the router can decide
 * which simulation backends are capable of a job and which is cheapest.
 *
 * Everything here is a pure function of the circuit and noise model —
 * no RNG, no clocks, no global state — which is what makes routing
 * decisions bit-identically reproducible and safe to absorb into cache
 * keys. analyzeForRouting (backend/router.hpp) runs each once per job;
 * everything later reads its CircuitAnalysis.
 */
#ifndef QA_BACKEND_ANALYZER_HPP
#define QA_BACKEND_ANALYZER_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/noise.hpp"

namespace qa
{
namespace backend
{

/** Coarse circuit classification for routing and `--explain` output. */
enum class CircuitClass
{
    kClifford,        ///< every gate is Clifford
    kCliffordPlusFew, ///< a handful of non-Clifford gates
    kGeneral,         ///< substantially non-Clifford
};

const char* circuitClassName(CircuitClass klass);

/** Structural profile of one circuit, computed in a single pass. */
struct CircuitProfile
{
    int num_qubits = 0;
    int num_clbits = 0;
    size_t instructions = 0;
    size_t gates = 0;
    size_t measures = 0;
    size_t resets = 0;

    /** Gates whose unitary is not a recognized Clifford operation. */
    int non_clifford_gates = 0;

    /** Unique non-Clifford gate names, in order of first appearance. */
    std::vector<std::string> non_clifford_names;

    /**
     * True when every measurement sits in a terminal suffix of
     * measure/barrier instructions and the circuit has no resets:
     * exactly the shape density-matrix sampling can serve by reading
     * the final diagonal.
     */
    bool terminal_measure_only = false;

    /** (qubit, clbit) pairs of the terminal measurements, in order. */
    std::vector<std::pair<int, int>> terminal_measures;

    CircuitClass klass = CircuitClass::kGeneral;
};

/** Analyze a circuit; one pass plus Clifford recognition per gate. */
CircuitProfile analyzeCircuit(const QuantumCircuit& circuit);

/**
 * A Kraus channel recognized as a Pauli mixture: outcome i applies the
 * single-qubit Pauli with symplectic bits (x, z) = `paulis[i]` with
 * unnormalized weight `weights[i]` (the |c|^2 of K_i = c * P_i).
 */
struct PauliChannel
{
    std::vector<double> weights;
    std::vector<std::pair<uint8_t, uint8_t>> paulis;
};

/** What the active noise model demands of a backend. */
struct NoiseProfile
{
    bool enabled = false;

    /** Gate-level Kraus channels are attached. */
    bool kraus = false;

    /** Classical readout error is attached. */
    bool readout = false;

    /**
     * True when every attached Kraus channel is a probabilistic Pauli
     * mixture (depolarizing, bit/phase flip, ...). Such channels are
     * state-independent, so stabilizer trajectories can apply them as
     * sign-only tableau updates. Meaningless when `kraus` is false.
     */
    bool pauli_only = true;

    /** When `pauli_only`: noise_1q / noise_2q as Pauli mixtures. */
    std::vector<PauliChannel> pauli_1q;
    std::vector<PauliChannel> pauli_2q;
};

/** Profile a model, recognizing each Kraus channel once (null: none). */
NoiseProfile analyzeNoise(const NoiseModel* noise);

/**
 * Entanglement-growth heuristic for MPS routing: how much bond
 * dimension the line ordering (qubit i <-> site i) plausibly needs.
 *
 * Every multi-qubit gate spanning qubits [lo, hi] crosses the bond cuts
 * lo < k <= hi - 1... more precisely the cuts between sites (k, k+1)
 * for lo <= k < hi, and each crossing can at most double the Schmidt
 * rank at that cut. Exact rank is also bounded by the cut's Hilbert
 * dimension, min(2^(k+1), 2^(n-k-1)). The profile's needed_log2_chi is
 * the max over cuts of min(crossings, dimension exponent): a cheap
 * upper-bound estimate of log2 of the bond dimension an exact MPS run
 * would need.
 */
struct EntanglementProfile
{
    /** Largest per-cut crossing count across the line (graph width). */
    size_t max_cut_crossings = 0;

    /** log2 of the estimated exact bond dimension (see above). */
    int needed_log2_chi = 0;

    /** Widest gate arity seen (MPS lowers arity 3, rejects > 3). */
    int max_gate_arity = 0;

    /** Multi-qubit gates acting on non-adjacent qubit pairs. */
    size_t long_range_gates = 0;

    /**
     * Two-site updates an MPS run would execute: one per adjacent 2q
     * gate plus 2 * (distance - 1) routing SWAPs per long-range gate.
     */
    size_t swap_routed_ops = 0;
};

/** Analyze 2q-gate connectivity across the line ordering; pure. */
EntanglementProfile analyzeEntanglement(const QuantumCircuit& circuit);

/** Bond dimension a chi-capped run would actually reach (<= cap). */
int mpsEffectiveChi(const EntanglementProfile& ent, int chi_cap);

/**
 * Estimated truncation-error bound for running the circuit with the
 * given chi cap: 0.0 when the cap covers the estimated exact bond
 * dimension, else 1 - 2^(log2(cap) - needed_log2_chi) — the Schmidt
 * weight a flat spectrum would lose. Deliberately pessimistic for
 * peaked spectra; it gates *capability*, not correctness.
 */
double mpsTruncationBound(const EntanglementProfile& ent, int chi_cap);

/**
 * Recognize a single-qubit Kraus channel as a Pauli mixture: each Kraus
 * operator must be a complex multiple of one Pauli (coefficient
 * c = tr(P^dag K) / 2, all other Pauli coefficients ~0). Returns
 * nullopt when any operator mixes Paulis (amplitude damping et al.),
 * whose trajectory probabilities are state-dependent.
 */
std::optional<PauliChannel> recognizePauliChannel(const KrausChannel& channel);

} // namespace backend
} // namespace qa

#endif // QA_BACKEND_ANALYZER_HPP
