/**
 * @file
 * Clifford recognition by conjugation: decide whether an arbitrary gate
 * unitary is a Clifford operation, and if so extract its action on the
 * local Pauli generators so the stabilizer tableau can apply it without
 * knowing the gate's name.
 *
 * This is what lets the stabilizer backend execute gates like rz(pi/2)
 * or a `unitary` instruction that happens to be Clifford: a gate U is
 * Clifford iff U X_j U^dag and U Z_j U^dag are (signed) Paulis for every
 * local generator, and those 2k images are exactly the data the tableau
 * update needs.
 */
#ifndef QA_STAB_CLIFFORD_HPP
#define QA_STAB_CLIFFORD_HPP

#include <optional>
#include <vector>

#include "circuit/instruction.hpp"
#include "stab/pauli.hpp"

namespace qa
{

/**
 * The action of a k-qubit Clifford gate U on the local Pauli
 * generators: x_images[j] = U X_j U^dag and z_images[j] = U Z_j U^dag,
 * each a signed Pauli over the k local qubits (phase 0 or 2, i.e. +/-).
 * Local qubit j corresponds to Instruction::qubits[j] (qubits[0] is the
 * most significant bit of the local index, matching applyMatrix).
 */
struct CliffordAction
{
    int arity = 0;
    std::vector<PauliString> x_images;
    std::vector<PauliString> z_images;
};

/**
 * Recognize a 2^k x 2^k unitary (k = 1 or 2) as a Clifford gate by
 * conjugating every local generator and matching the image against the
 * signed Pauli group entry-wise (tolerance `tol`). Returns nullopt when
 * any image is not a signed Pauli (the gate is not Clifford) or when
 * k > 2. Global phase is irrelevant (conjugation cancels it).
 */
std::optional<CliffordAction>
recognizeCliffordMatrix(const CMatrix& u, double tol = 1e-9);

/**
 * Recognize a gate instruction as Clifford through
 * recognizeCliffordMatrix on its matrix. Returns nullopt for
 * non-Clifford gates and for non-gate instructions.
 */
std::optional<CliffordAction> recognizeClifford(const Instruction& instr);

/**
 * True when the instruction is a gate-table gate flagged
 * `tableau_native`, which StabilizerTableau::applyGate applies by name.
 */
bool isNamedCliffordGate(const Instruction& instr);

/**
 * Conjugate an n-qubit Pauli by a k-qubit Clifford gate placed on
 * `qubits` (qubits[j] hosts the action's local qubit j): returns
 * U P U^dag, phase-exact. Factors outside `qubits` pass through;
 * each local X/Z factor is replaced by the action's generator image
 * (Y = i X Z decomposes into both). This is how the assertion compiler
 * pushes stabilizer generators through basis-change circuits without
 * materializing any matrix.
 */
PauliString conjugatePauli(const PauliString& pauli,
                           const CliffordAction& action,
                           const std::vector<int>& qubits);

} // namespace qa

#endif // QA_STAB_CLIFFORD_HPP
