/**
 * @file
 * Aaronson-Gottesman stabilizer tableau: polynomial-time simulation of
 * Clifford circuits. Serves as an independent cross-validation backend
 * for the dense simulators and as the natural representation for the
 * paper's Bell/GHZ/cluster assertion targets.
 */
#ifndef QA_STAB_TABLEAU_HPP
#define QA_STAB_TABLEAU_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "linalg/vector.hpp"
#include "stab/clifford.hpp"
#include "stab/pauli.hpp"

namespace qa
{

/** Stabilizer tableau over n qubits (destabilizers + stabilizers). */
class StabilizerTableau
{
  public:
    /** The |0...0> state: stabilizers Z_q, destabilizers X_q. */
    explicit StabilizerTableau(int n);

    int numQubits() const { return n_; }

    /** @name Clifford gate application */
    ///@{
    void applyH(int q);
    void applyS(int q);
    void applySdg(int q);
    void applyX(int q);
    void applyY(int q);
    void applyZ(int q);
    void applyCx(int control, int target);
    void applyCz(int a, int b);
    void applySwap(int a, int b);
    ///@}

    /**
     * Apply a gate-table gate flagged `tableau_native` by name; throws
     * UserError for any other gate.
     */
    void applyGate(const Instruction& instr);

    /**
     * Apply an arbitrary recognized Clifford gate (stab/clifford.hpp)
     * to the listed qubits by rewriting every row's local Pauli factor
     * as a product of the gate's generator images. O(n) rows, O(1)
     * local work per row for the 1-2 qubit gates recognition admits —
     * O(n) per gate overall, O(n^2) per gate across a full tableau
     * rebuild. qubits[j] corresponds to the action's local qubit j.
     */
    void applyClifford(const CliffordAction& action,
                       const std::vector<int>& qubits);

    /** Measure qubit q in the computational basis (collapsing). */
    int measure(int q, Rng& rng);

    /** True if measuring q has a deterministic outcome. */
    bool isDeterministic(int q) const;

    /** The i-th stabilizer generator. */
    PauliString stabilizer(int i) const;

    /** The i-th destabilizer generator. */
    PauliString destabilizer(int i) const;

    /**
     * Dense statevector of the stabilized state (for n <= ~10): projects
     * a suitable basis state through (I + S_i)/2 for every generator.
     */
    CVector toStatevector() const;

  private:
    /** Row multiplication: row h *= row i (phase-exact). */
    void rowMult(int h, int i);

    int n_;
    // Rows 0..n-1: destabilizers; rows n..2n-1: stabilizers.
    std::vector<std::vector<uint8_t>> x_;
    std::vector<std::vector<uint8_t>> z_;
    std::vector<uint8_t> r_; // sign bit per row (i^2r: 0 => +, 1 => -)
};

/** True when every gate in the circuit is tableau-native. */
bool isCliffordCircuit(const QuantumCircuit& circuit);

/**
 * Run a measurement-free Clifford circuit on |0...0>. Named gates go
 * through applyGate; any other gate runs by the Clifford action
 * recognized in its matrix (as on the stabilizer backend).
 */
StabilizerTableau runClifford(const QuantumCircuit& circuit);

} // namespace qa

#endif // QA_STAB_TABLEAU_HPP
