/**
 * @file
 * The one Clifford classifier: decide whether a gate instruction is a
 * Clifford operation, and if so give its action on the local Pauli
 * group, so the stabilizer tableau can apply it without knowing the
 * gate's name.
 *
 * A gate U is Clifford iff U X_j U^dag and U Z_j U^dag are signed
 * Paulis for every local generator. Parameterless gate-table rows get
 * their action once, recognized from the row's own matrix and cached;
 * every other gate (rz(pi/2), u3, a `unitary` instruction, ...) is
 * recognized from its matrix in fixed-size 2x2/4x4 arithmetic. The
 * analyzer, the stabilizer backend, runClifford and the assertion
 * compiler all read cliffordAction and nothing else.
 */
#ifndef QA_STAB_CLIFFORD_HPP
#define QA_STAB_CLIFFORD_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/instruction.hpp"
#include "stab/pauli.hpp"

namespace qa
{

/**
 * The action of a k-qubit Clifford gate U (k = 1 or 2) on the local
 * Pauli group, as a 4^k-entry table: image[p] codes U P_p U^dag.
 *
 * Local Pauli P_p is indexed by its symplectic bits: bit j of p is its
 * X bit on local qubit j and bit k + j its Z bit (both set: Y), and P_p
 * is the Hermitian tensor product of those factors. Local qubit j is
 * Instruction::qubits[j] (qubits[0] is the most significant bit of the
 * matrix index, matching applyMatrix). An image code holds the image's
 * own symplectic index in its low 2k bits and its sign in kMinus.
 */
struct CliffordAction
{
    static constexpr uint8_t kMinus = 0x10;

    int arity = 0;
    std::array<uint8_t, 16> image{};
};

/**
 * The gate's Clifford action, or nullopt when the instruction is not a
 * gate, is not Clifford, or acts on more than 2 qubits. Matrices are
 * matched entry-wise at tolerance 1e-9; global phase is irrelevant
 * (conjugation cancels it).
 */
std::optional<CliffordAction> cliffordAction(const Instruction& instr);

/**
 * Conjugate an n-qubit Pauli by a k-qubit Clifford gate placed on
 * `qubits` (qubits[j] hosts the action's local qubit j): returns
 * U P U^dag, phase-exact. Factors outside `qubits` pass through; the
 * local factor is looked up in the action's table. This is how the
 * assertion compiler pushes stabilizer generators through basis-change
 * circuits without materializing any matrix.
 */
PauliString conjugatePauli(const PauliString& pauli,
                           const CliffordAction& action,
                           const std::vector<int>& qubits);

} // namespace qa

#endif // QA_STAB_CLIFFORD_HPP
