/**
 * @file
 * Quantum phase estimation, the paper's main debugging case study
 * (Sec. IX, Figs. 15-16): n counting qubits + one eigenstate qubit, the
 * controlled-u3 phase-kickback ladder, and the inverse QFT, built stage
 * by stage so assertion slots 1..n+2 can be placed between stages.
 *
 * Bug injection reproduces the paper's three scenarios:
 *  - kFixedAngle (Bug1, Sec. IX-A): the loop index is dropped, so every
 *    controlled rotation uses the base angle;
 *  - kMissingControl (Bug2): "cu3" typed as "u3" -- uncontrolled gates;
 *  - kWrongParamOrder (Sec. IX-B): rotation angle lands in the wrong
 *    u3 parameter slot.
 */
#ifndef QA_ALGOS_QPE_HPP
#define QA_ALGOS_QPE_HPP

#include "circuit/circuit.hpp"
#include "linalg/vector.hpp"

namespace qa
{
namespace algos
{

/** Bug injected into the QPE phase-kickback loop. */
enum class QpeBug
{
    kNone,
    kFixedAngle,
    kMissingControl,
    kWrongParamOrder
};

/** Stage-structured QPE program. */
class QpeProgram
{
  public:
    /**
     * @param counting Number of counting qubits (paper uses 4).
     * @param lambda Eigenphase: U = u3(0, 0, lambda) = p(lambda).
     * @param bug Injected bug (kNone for the reference program).
     */
    QpeProgram(int counting, double lambda, QpeBug bug = QpeBug::kNone);

    int numQubits() const { return counting_ + 1; }

    /** Stages: 0 = superposition init, 1..n = controlled powers,
     *  n+1 = inverse QFT. */
    int numStages() const { return counting_ + 2; }

    /** Circuit of one stage (width = numQubits()). */
    QuantumCircuit stage(int s) const;

    /** The full program. */
    QuantumCircuit full() const;

    /** Number of assertion slots (paper: n + 2). */
    int numSlots() const { return numStages(); }

    /**
     * Bug-free expected state after the first `slot` stages (the
     * "precalculated state vectors V1..V6" of Fig. 16), slot in
     * [1, numSlots()].
     */
    CVector expectedStateAtSlot(int slot) const;

  private:
    int counting_;
    double lambda_;
    QpeBug bug_;
};

/**
 * The Sec. IX-B hardware-experiment variant: U = u3(theta, 0, 0) =
 * Ry(theta), with the eigenstate qubit prepared in Ry's +1 Y-eigenstate
 * (|0> + i|1>)/sqrt2 so it never entangles with the counting register
 * and stays a single-qubit PURE state -- the state the paper's
 * slot-6 single-qubit assertion checks (2 CX + 2 SG SWAP design).
 *
 * @param bug Sec. IX-B's injected bug: the rotation angle lands in the
 *        wrong u3 parameter with base pi/2.
 */
QuantumCircuit qpeRyProgram(int counting, double theta, bool bug = false);

/** The eigenstate (|0> + i|1>)/sqrt2 the Ry-variant ancilla holds. */
CVector qpeRyEigenstate();

} // namespace algos
} // namespace qa

#endif // QA_ALGOS_QPE_HPP
