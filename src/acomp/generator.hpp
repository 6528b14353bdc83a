/**
 * @file
 * quAssert-style static assertion generation (PAPERS.md 2303.01487):
 * analyze a raw, assertion-free circuit, discover the state invariants
 * its Clifford prefix establishes, and emit assertion sites at natural
 * cut points for the compiler to lower.
 *
 * Two discovery engines cooperate:
 *  - the stabilizer tableau: the Clifford prefix of the circuit is
 *    simulated symbolically, and the tableau's stabilizer rows at each
 *    cut are exact invariants of the state there. Rows are grouped by
 *    qubit connectivity into classical (weight-1 Z), superposition
 *    (weight-1 X/Y), and entangled (multi-qubit) sites;
 *  - the GHZ preparation idiom: a Hadamard-like gate feeding a CX
 *    fan-out tree is recognized structurally and asserted against the
 *    generators the *pattern* promises (X...X and pairwise Z Z). Unlike
 *    the tableau — which faithfully absorbs every gate, including a
 *    buggy injected Pauli, into its rows — the idiom treats stray
 *    x/y/z gates on entangled qubits as runtime content to be checked,
 *    so source-level Pauli faults inside the preparation are detected
 *    rather than silently folded into the invariant. Hypothesis-based
 *    generation trades false alarms on exotic-but-legal preparations
 *    for exactly this detection power; any non-Pauli extra disables
 *    the idiom and falls back to the tableau.
 */
#ifndef QA_ACOMP_GENERATOR_HPP
#define QA_ACOMP_GENERATOR_HPP

#include <vector>

#include "acomp/lowering.hpp"
#include "circuit/circuit.hpp"
#include "circuit/qasm.hpp"

namespace qa
{
namespace acomp
{

/** Emitted-site cap; the end-of-prefix cut is filled first. */
inline constexpr int kMaxGeneratedSites = 3;

/**
 * Discover assertion sites in a raw circuit: the GHZ idiom's site, then
 * the tableau's sites at the end of the Clifford prefix and at each
 * explicit barrier inside it (latest first), up to kMaxGeneratedSites.
 * Returns sites sorted by insertion position (possibly empty — e.g. a
 * circuit whose very first instruction is non-Clifford). `positions`
 * (when non-null, from parseQasm) anchors each site to a source
 * line/column for diagnostics. The raw circuit is never modified.
 */
std::vector<AssertionSite>
generateAssertions(const QuantumCircuit& raw,
                   const std::vector<QasmPos>* positions = nullptr);

} // namespace acomp
} // namespace qa

#endif // QA_ACOMP_GENERATOR_HPP
