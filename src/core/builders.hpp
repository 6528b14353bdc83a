/**
 * @file
 * The assertion-circuit builders of the paper: SWAP-based (Sec. IV),
 * logical-OR-based (Sec. IV-E), NDD-based (Sec. V), and the Proq
 * projection baseline, behind one entry pair, planAssertion and
 * buildAssertion, over the shared correct-subspace analysis.
 *
 * SWAP, OR and Proq share one rank-regime split (Sec. IV-C): a rank-t
 * correct subspace is checked as one power-rank basis (t = 2^m), two
 * supersets (2^m < t < 2^(m+1)), or one extended basis over an extra
 * embedding ancilla (2^(n-1) < t < 2^n). Each design supplies only how
 * many ancillas and clbits one power-rank part takes and how to check
 * it; the split hands the parts their slices in order, after the
 * embedding ancilla. NDD checks every regime with one circuit.
 *
 * All designs use the convention: ancilla measured |0> = pass,
 * |1> = assertion error (Sec. III: |1> is noisier and decays to |0>).
 */
#ifndef QA_CORE_BUILDERS_HPP
#define QA_CORE_BUILDERS_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "core/state_set.hpp"

namespace qa
{

/** Assertion circuit design selector (the API's `design` argument). */
enum class AssertionDesign
{
    kSwap, ///< SWAP-based (Sec. IV).
    kOr,   ///< Logical-OR-based (Sec. IV-E).
    kNdd,  ///< NDD-based (Sec. V).
    kProq, ///< Projection-based baseline [30]: measures program qubits
           ///< directly, requiring the mid-circuit measurement support
           ///< real devices lack (excluded from kAuto for that reason).
    kCustom, ///< User/baseline-supplied fragment (addCustomAssertion).
    kAuto  ///< Estimate the three proposed designs, pick the lowest CX.
};

/** Human-readable design name. */
const char* designName(AssertionDesign design);

/**
 * Placement of U / U^-1 relative to the SWAP layer in the pure-state
 * SWAP design (the paper's four variants; Fig. 3 and Fig. 6 are two of
 * them). Mixed-state SWAP assertions always use the Fig. 8 shape.
 */
enum class SwapPlacement
{
    kInvBeforePrepAfter,  ///< Fig. 3: U^-1 on tested wires, U after the
                          ///< swap on tested wires; 2-CX optimized swaps.
    kInvBeforePrepBefore, ///< Fig. 6: U^-1 on tested wires, U prepared on
                          ///< the ancillas before the swap; full swaps.
    kInvAfterPrepBefore,  ///< U on ancillas before, U^-1 on ancilla wires
                          ///< after the swap; full swaps.
    kInvAfterPrepAfter    ///< 2-CX swaps; U^-1 on ancilla wires after,
                          ///< U on tested wires after.
};

/** Resource plan for one assertion insertion. */
struct AssertionPlan
{
    int num_ancillas = 0;
    int num_clbits = 0;
};

/** Everything a builder needs to emit its fragment. */
struct BuildContext
{
    int total_qubits = 0;  ///< Width of the fragment circuit.
    int total_clbits = 0;  ///< Classical width of the fragment circuit.
    std::vector<int> qubits;      ///< Qubits under test.
    std::vector<int> ancillas;    ///< Allocated ancillas (plan-sized).
    std::vector<int> clbits;      ///< Allocated classical bits.
    std::vector<int> free_qubits; ///< Borrowable dirty ancillas.
};

/**
 * The plan and the fragment of one concrete design (kSwap, kOr, kNdd or
 * kProq; `placement` shapes kSwap only). Throws on kCustom and kAuto,
 * and on a rank-2^n subspace. AssertedProgram and the assertion compiler
 * both build through these.
 */
AssertionPlan planAssertion(const CorrectSubspace& subspace,
                            AssertionDesign design);
QuantumCircuit buildAssertion(const CorrectSubspace& subspace,
                              AssertionDesign design,
                              SwapPlacement placement,
                              const BuildContext& ctx);

/**
 * The one layout rule for an assertion slot, shared by costing and
 * inserting: a `total_qubits` x `total_clbits` fragment testing `qubits`
 * with the slot's `ancillas` and `clbits`, which may borrow every other
 * program qubit (each index below `program_qubits` not under test).
 */
BuildContext slotContext(int total_qubits, int total_clbits,
                         int program_qubits, const std::vector<int>& qubits,
                         std::vector<int> ancillas, std::vector<int> clbits);

/**
 * Basis-change pair of a correct basis: uinv maps the
 * correct subspace onto the computational states whose leading qubits
 * are |0>, u is its exact inverse. Both act on local qubits [0, n).
 */
struct BasisChange
{
    QuantumCircuit u;
    QuantumCircuit uinv;

    /** Local qubits that read |0> exactly on the correct subspace after
     *  uinv (size n - m for rank-2^m bases; the parity-check pivots on
     *  the cheap affine path, the leading qubits otherwise). */
    std::vector<int> flag_qubits;

    /** Basis indices spanning the image of the correct subspace. */
    std::vector<uint64_t> correct_indices;
};

/**
 * Build the basis change for a rank-2^m correct basis (or rank 1).
 * Dispatches: state preparation for rank 1, X/CNOT-only circuits for
 * affine computational-basis sets, general synthesis otherwise.
 */
BasisChange buildBasisChange(const std::vector<CVector>& basis, int n);

/** Rank-regime classification of Sec. IV-C. */
enum class RankRegime
{
    kPower,   ///< t == 2^m with m <= n-1 (includes t == 1).
    kBetween, ///< 2^m < t < 2^{m+1} with t < 2^{n-1}: two supersets.
    kLarge,   ///< 2^{n-1} < t < 2^n: one extra "virtually correct" qubit.
    kFull     ///< t == 2^n: unassertable.
};

/** Classify the rank; `m` receives floor(log2(t)). */
RankRegime classifyRank(size_t t, int n, int* m);

/**
 * Superset construction for the kBetween regime: two orthonormal bases
 * of size 2^{m+1} whose intersection spans exactly the correct subspace.
 */
std::pair<std::vector<CVector>, std::vector<CVector>>
buildSupersets(const CorrectSubspace& subspace, int m);

/**
 * Extended basis for the kLarge regime: |0>|psi_i> for the t correct
 * states padded with 2^n - t "virtually correct" states |1>|c_j>, giving
 * a rank-2^n subspace over n+1 qubits.
 */
std::vector<CVector> buildExtendedBasis(const CorrectSubspace& subspace);

} // namespace qa

#endif // QA_CORE_BUILDERS_HPP
