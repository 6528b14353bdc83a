/**
 * @file
 * Aaronson-Gottesman stabilizer tableau: polynomial-time simulation of
 * Clifford circuits. Serves as an independent cross-validation backend
 * for the dense simulators and as the natural representation for the
 * paper's Bell/GHZ/cluster assertion targets. Every gate, named or
 * not, is applied one way: by its Clifford action's table
 * (stab/clifford.hpp).
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

/** Widest tableau (64 MiB); the router's capability check reads it. */
inline constexpr int kTableauMaxQubits = 4096;

/** Stabilizer tableau over n qubits (destabilizers + stabilizers). */
class StabilizerTableau
{
  public:
    /** The |0...0> state: stabilizers Z_q, destabilizers X_q. */
    explicit StabilizerTableau(int n);

    int numQubits() const { return n_; }

    /**
     * Pauli gates as sign-only updates, for noise and reset; every
     * other gate goes through applyClifford.
     */
    ///@{
    void applyX(int q);
    void applyY(int q);
    void applyZ(int q);
    ///@}

    /**
     * Apply a Clifford gate (its action from cliffordAction) to the
     * listed qubits: the only gate update. Each row's local factor is
     * one lookup in the action's table, so a gate costs one pass over
     * the 2n rows. qubits[j] corresponds to the action's local qubit j.
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

/**
 * Run a measurement-free Clifford circuit on |0...0>, each gate by its
 * cliffordAction (as on the stabilizer backend); throws UserError on a
 * non-Clifford gate.
 */
StabilizerTableau runClifford(const QuantumCircuit& circuit);

} // namespace qa

#endif // QA_STAB_TABLEAU_HPP
