/**
 * @file
 * Pauli strings with phase tracking: the algebra underneath the
 * stabilizer tableau simulator.
 */
#ifndef QA_STAB_PAULI_HPP
#define QA_STAB_PAULI_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace qa
{

/**
 * A phased n-qubit Pauli operator i^phase * P_0 (x) ... (x) P_{n-1},
 * stored in the symplectic (x, z) representation: x_q = 1 selects an X
 * factor on qubit q, z_q = 1 a Z factor, both = Y.
 */
class PauliString
{
  public:
    /** Identity on n qubits. */
    explicit PauliString(int n);

    /** Parse e.g. "+XIZ", "-iYY". */
    static PauliString fromLabel(const std::string& label);

    int numQubits() const { return int(x_.size()); }

    bool x(int q) const { return x_[q]; }
    bool z(int q) const { return z_[q]; }
    void setX(int q, bool v) { x_[q] = v; }
    void setZ(int q, bool v) { z_[q] = v; }

    /** Phase exponent k in i^k, k in {0,1,2,3}. */
    int phase() const { return phase_; }
    void setPhase(int k) { phase_ = ((k % 4) + 4) % 4; }

    /** Multiply by another Pauli (phase-exact). */
    PauliString operator*(const PauliString& rhs) const;

    /** True if the two Paulis commute. */
    bool commutesWith(const PauliString& rhs) const;

    /** True if every factor is I (phase may be nonzero). */
    bool isIdentity() const;

    /** Dense 2^n matrix (for cross-validation at small n). */
    CMatrix toMatrix() const;

    /** Render as e.g. "-iXYZ". */
    std::string toString() const;

    bool operator==(const PauliString& rhs) const;

  private:
    std::vector<uint8_t> x_;
    std::vector<uint8_t> z_;
    int phase_ = 0;
};

/**
 * Phase exponent contribution (power of i) from multiplying the
 * single-qubit Paulis (x1, z1) * (x2, z2) (Aaronson-Gottesman g). Inline
 * so the tableau's row products (StabilizerTableau::rowMult) keep it in
 * their loop.
 */
inline int
phaseExponent(bool x1, bool z1, bool x2, bool z2)
{
    if (!x1 && !z1) return 0;
    if (x1 && z1) return (z2 ? 1 : 0) - (x2 ? 1 : 0);          // Y
    if (x1 && !z1) return z2 ? (x2 ? 1 : -1) : 0;              // X
    return x2 ? (z2 ? -1 : 1) : 0;                             // Z
}

} // namespace qa

#endif // QA_STAB_PAULI_HPP
