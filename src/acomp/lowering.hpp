/**
 * @file
 * Assertion-compiler vocabulary: the executable lowering forms an
 * assertion slot can take, the assertion sites the compiler consumes,
 * and the stabilizer-generator extraction that decides whether a slot
 * can drop its ancillas entirely.
 *
 * A slot's projector admits up to two families of executable forms:
 *  - the unitary designs of the paper (SWAP Sec. IV, logical-OR
 *    Sec. IV-E, NDD Sec. V), which need ancilla qubits and a synthesized
 *    basis change; and
 *  - Pauli parity measurements (Proq-style projector decomposition,
 *    PAPERS.md 1911.12855): when the correct subspace is a stabilizer
 *    subspace, its projector factors as prod_j (I + S_j)/2 over signed
 *    Pauli generators S_j, each measurable ancilla-free with the
 *    synth/pauli_gadget.hpp parity gadget.
 *
 * The compiler (compiler.hpp) picks among the capable forms with the
 * backend router's cost weights.
 */
#ifndef QA_ACOMP_LOWERING_HPP
#define QA_ACOMP_LOWERING_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/state_set.hpp"
#include "stab/pauli.hpp"

namespace qa
{
namespace acomp
{

/** Executable form a lowered assertion slot took. */
enum class LoweringForm
{
    kSwap,         ///< SWAP-based unitary design (paper Sec. IV).
    kOr,           ///< Logical-OR unitary design (paper Sec. IV-E).
    kNdd,          ///< NDD unitary design (paper Sec. V).
    kPauliMeasure  ///< All stabilizer generators measured inline
                   ///< (ancilla-free, one clbit per generator).
};

/** Stable wire/log name of a lowering form. */
const char* formName(LoweringForm form);

/** What the caller may request for lowering. */
enum class LoweringRequest
{
    kAuto,         ///< Cost model picks the cheapest capable form.
    kSwap,
    kOr,
    kNdd,
    kPauliMeasure
};

/** Stable wire/log name of a lowering request. */
const char* loweringRequestName(LoweringRequest request);

/** Parse a wire lowering name; returns false on an unknown name. */
bool parseLoweringRequest(const std::string& name, LoweringRequest* out);

/** Invariant class an assertion site checks (quAssert's taxonomy). */
enum class InvariantClass
{
    kUserState,     ///< Caller-supplied StateSet target.
    kClassical,     ///< Qubits deterministically in a basis state.
    kSuperposition, ///< Qubits in |+>/|-> product states.
    kEntangled      ///< Multi-qubit stabilizer invariant (GHZ-like).
};

/** Stable wire/log name of an invariant class. */
const char* invariantClassName(InvariantClass klass);

/**
 * One assertion insertion point the compiler lowers: "before raw
 * instruction `position`, the state of `qubits` satisfies this
 * invariant". Exactly one of `set` (dense target, user sites) or
 * `generators` (signed Pauli stabilizers local over `qubits`,
 * generated sites) describes the invariant; a user site whose subspace
 * is stabilizer gets generators derived on demand.
 */
struct AssertionSite
{
    /** Insert before raw.instructions()[position] (== size: at end). */
    size_t position = 0;

    /** Program qubits under test, ascending. */
    std::vector<int> qubits;

    /** Dense assertion target (null for generated sites). */
    std::shared_ptr<const StateSet> set;

    /** Signed Pauli stabilizer generators, local over `qubits`. */
    std::vector<PauliString> generators;

    /** Invariant class (kUserState for caller-supplied sites). */
    InvariantClass invariant = InvariantClass::kUserState;

    /** Source anchor for diagnostics (0 = unknown). */
    int source_line = 0;
    int source_col = 0;
};

/**
 * Extract signed Pauli stabilizer generators for a correct subspace,
 * local over subspace.n qubits: the subspace is exactly the joint +1
 * eigenspace of the returned generators. Returns nullopt when the
 * subspace is not a stabilizer subspace (then only the unitary designs
 * apply). Three extraction paths, tried in order:
 *  1. affine computational-basis sets: basis indices form a coset
 *     x0 + D of an F2-linear space; generators are (-1)^{h.x0} Z^h for
 *     a null-space basis h of D (CNOT-free to measure);
 *  2. Clifford conjugation: push Z through the buildBasisChange
 *     circuit for each flag qubit when every basis-change gate is
 *     recognizably Clifford;
 *  3. exhaustive signed-Pauli search with symplectic reduction for
 *     small n (cross-validation fallback).
 * A full-rank subspace returns an empty generator list (nothing to
 * measure); the compiler rejects it like the unitary builders do.
 */
std::optional<std::vector<PauliString>>
stabilizerGenerators(const CorrectSubspace& subspace);

/** Per-slot lowering record reported on results and explain output. */
struct SlotSummary
{
    LoweringForm form = LoweringForm::kPauliMeasure;
    InvariantClass invariant = InvariantClass::kUserState;

    /** Raw-instruction insertion point the slot guards. */
    size_t position = 0;

    /** Program qubits under test. */
    std::vector<int> qubits;

    /** Classical bits recording the slot verdict (all-zero = pass). */
    std::vector<int> clbits;

    /** Ancilla qubits the form consumed (empty for the Pauli form). */
    std::vector<int> ancillas;

    /** Instruction / CX count of the inserted fragment. */
    int gates = 0;
    int cx = 0;

    /** Stabilizer generator count (0 for unitary forms). */
    int generators = 0;

    /** Source anchor of the guarded statement (0 = unknown). */
    int source_line = 0;
    int source_col = 0;
};

} // namespace acomp
} // namespace qa

#endif // QA_ACOMP_LOWERING_HPP
