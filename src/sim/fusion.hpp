/**
 * @file
 * Gate-fusion pass for the dense backends.
 *
 * Runs of gates acting on a small shared qubit set are coalesced into a
 * single 4x4 (or, with max_qubits = 3, 8x8) unitary, so the dense
 * simulators sweep the 2^n amplitudes once per fused group instead of
 * once per gate. The pass runs at PreparedCircuit build time — its cost
 * is amortized across every shot of a job — and is a pure instruction
 * rewrite: fused streams produce final states equal to the unfused ones
 * up to floating-point reassociation (~1e-15 per amplitude).
 *
 * Rules (DESIGN.md Sec. 12):
 *  - only kGate instructions fuse; measurements, resets, and barriers
 *    flush every open group and pass through unchanged;
 *  - a gate merges into the most recent group it shares a qubit with,
 *    provided the qubit union stays within max_qubits; gates commute
 *    trivially past groups they are disjoint from;
 *  - a gate disjoint from every open group may still fold into one when
 *    the union fits (two 1q runs become one 2q kernel: fewer sweeps);
 *  - gates wider than max_qubits flush and pass through unfused;
 *  - callers must not fuse a stream whose gates receive per-gate Kraus
 *    noise: fusion changes gate arity, which would change which channel
 *    list (noise_1q/noise_2q) the noise loop applies.
 */
#ifndef QA_SIM_FUSION_HPP
#define QA_SIM_FUSION_HPP

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "linalg/matrix.hpp"

namespace qa
{

/**
 * Knobs for the fusion pass. analyzeForRouting fuses with
 * `{true, defaults::kFusionMaxQubits}`; finalState's overload takes
 * them so tests can evolve an unfused reference.
 */
struct FusionOptions
{
    /** Master switch; false leaves the instruction stream untouched. */
    bool enabled = true;

    /**
     * Largest qubit union a fused group may cover. 2 is the sweet spot
     * (4x4 kernels); 3 is a stretch mode trading kernel cost for fewer
     * sweeps. Clamped to [1, 3] by the pass.
     */
    int max_qubits = 2;
};

/** What the fusion pass did to one instruction stream. */
struct FusionStats
{
    /** Gate instructions that entered the pass. */
    size_t gates_in = 0;

    /** Gate instructions after fusion. */
    size_t gates_out = 0;

    /** Output gates that combine >= 2 input gates. */
    size_t fused_groups = 0;

    /** Largest number of input gates folded into one output gate. */
    size_t max_group = 0;

    /** Kernel class name -> output gate count (the execution mix). */
    std::map<std::string, size_t> kernel_counts;

    /** gates_out / gates_in (1.0 for an empty stream). */
    double
    ratio() const
    {
        return gates_in == 0 ? 1.0
                             : double(gates_out) / double(gates_in);
    }

    /** Accumulate another stream's stats (prefix + suffix). */
    void merge(const FusionStats& other);
};

/** A fused instruction stream plus what the pass did to it. */
struct FusedProgram
{
    std::vector<Instruction> instructions;
    FusionStats stats;
};

/**
 * Fuse instructions [begin, end) of `instrs`. Non-gate instructions
 * pass through in order; gate order is preserved up to exchanges of
 * provably disjoint (trivially commuting) gates. Disabled options
 * return the range unchanged but still report gates_in/gates_out and
 * the kernel mix.
 */
FusedProgram fuseInstructions(const std::vector<Instruction>& instrs,
                              size_t begin, size_t end,
                              const FusionOptions& options);

/** Fuse a whole circuit's instruction stream. */
FusedProgram fuseCircuit(const QuantumCircuit& circuit,
                         const FusionOptions& options);

/**
 * Embed a 2^kf unitary over `from` qubits into the 2^kt space over
 * `to` qubits (every `from` qubit must appear in `to`; both lists use
 * the MSB-first local convention of Instruction::qubits). Identity on
 * the qubits of `to` not in `from`.
 */
CMatrix expandToUnion(const CMatrix& m, const std::vector<int>& from,
                      const std::vector<int>& to);

} // namespace qa

#endif // QA_SIM_FUSION_HPP
