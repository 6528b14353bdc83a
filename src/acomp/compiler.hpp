/**
 * @file
 * The assertion compiler (DESIGN.md Sec. 14): lower assertion sites —
 * caller-supplied or generator-discovered — into the cheapest capable
 * executable form per slot, producing the one instrumented circuit the
 * policy runner executes.
 *
 * Form selection extends the backend router's cost model: each
 * candidate form's gate count is weighted by
 * backend::assertionGateWeight under the backend the instrumented
 * circuit would route to. Stabilizer-expressible slots therefore lower
 * to ancilla-free Pauli parity measurements (which keep a Clifford
 * program on the tableau backend); projectors with no stabilizer
 * structure fall back to the paper's unitary designs (SWAP / OR / NDD),
 * ancillas and all. A slot admitting no form under the requested knobs
 * raises UserError(kUnsupportedAssertion) anchored to the source
 * statement — never a silent fallback.
 */
#ifndef QA_ACOMP_COMPILER_HPP
#define QA_ACOMP_COMPILER_HPP

#include <string>
#include <vector>

#include "acomp/generator.hpp"
#include "acomp/lowering.hpp"
#include "circuit/circuit.hpp"
#include "core/builders.hpp"
#include "sim/options.hpp"

namespace qa
{
namespace acomp
{

/** SWAP-design placement (matches AssertedProgram's default). */
inline constexpr SwapPlacement kSlotPlacement =
    SwapPlacement::kInvBeforePrepAfter;

/** Assertion-compiler knobs. */
struct AcompOptions
{
    /** Requested lowering (kAuto: cost model decides per slot). */
    LoweringRequest lowering = LoweringRequest::kAuto;

    /** Backend request the cost model weighs candidates under. */
    BackendRequest backend = BackendRequest::kAuto;
};

/** A compiled (instrumented) program ready for the policy runner. */
struct CompiledProgram
{
    /**
     * The instrumented circuit, always exactly one entry. It stays a
     * vector only because perfbench reads it as one (ROADMAP item 10).
     */
    std::vector<QuantumCircuit> variants;

    /** Per-slot lowering decisions, in insertion order. */
    std::vector<SlotSummary> slots;

    /** Clbits carrying the raw program's own measurements. */
    std::vector<int> program_clbits;

    /** Raw circuit dimensions (the instrumented circuit may be wider). */
    int raw_qubits = 0;
    int raw_clbits = 0;

    /** True when kRepair is sound: every slot is SWAP-based (state
     *  re-prepared on failure). */
    bool repair_supported = false;

    /** True when the sites came from the assertion generator. */
    bool generated = false;
};

/**
 * Lower assertion sites into an instrumented program. Sites may target
 * any raw instruction boundary (position == size(): end of circuit);
 * slot clbits are appended after the raw circuit's own, so the raw
 * program's histogram is the marginal over [0, raw_clbits). Throws
 * UserError(kUnsupportedAssertion) when any site admits no executable
 * form under opts.lowering.
 */
CompiledProgram compileAssertions(const QuantumCircuit& raw,
                                  const std::vector<AssertionSite>& sites,
                                  const AcompOptions& opts = {});

/**
 * Generate-then-compile: discover sites with generateAssertions and
 * lower them. A circuit yielding no sites compiles to the raw circuit
 * itself with zero slots.
 */
CompiledProgram autoAssert(const QuantumCircuit& raw,
                           const AcompOptions& opts = {},
                           const std::vector<QasmPos>* positions = nullptr);

/**
 * Human-readable per-slot lowering table (form, invariant, position,
 * qubits, clbits, ancillas, gate/CX budget, generator count) for
 * qa_explain and `qassertd` explain responses.
 */
std::string formatLoweringTable(const CompiledProgram& compiled);

} // namespace acomp
} // namespace qa

#endif // QA_ACOMP_COMPILER_HPP
