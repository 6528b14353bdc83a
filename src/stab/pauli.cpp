#include "stab/pauli.hpp"

#include "circuit/stdgates.hpp"
#include "common/error.hpp"

namespace qa
{

PauliString::PauliString(int n) : x_(n, 0), z_(n, 0)
{
    QA_REQUIRE(n >= 1, "Pauli string needs at least one qubit");
}

PauliString
PauliString::fromLabel(const std::string& label)
{
    size_t pos = 0;
    int phase = 0;
    if (pos < label.size() && (label[pos] == '+' || label[pos] == '-')) {
        if (label[pos] == '-') phase = 2;
        ++pos;
    }
    if (pos < label.size() && label[pos] == 'i') {
        phase += 1;
        ++pos;
    }
    const std::string body = label.substr(pos);
    QA_REQUIRE(!body.empty(), "empty Pauli label");
    PauliString p(int(body.size()));
    p.setPhase(phase);
    for (size_t q = 0; q < body.size(); ++q) {
        switch (body[q]) {
          case 'I': break;
          case 'X': p.setX(int(q), true); break;
          case 'Z': p.setZ(int(q), true); break;
          case 'Y':
            p.setX(int(q), true);
            p.setZ(int(q), true);
            break;
          default:
            QA_FAIL("invalid Pauli letter in label: " + label);
        }
    }
    return p;
}

PauliString
PauliString::operator*(const PauliString& rhs) const
{
    QA_REQUIRE(numQubits() == rhs.numQubits(),
               "Pauli multiplication size mismatch");
    PauliString out(numQubits());
    int phase = phase_ + rhs.phase_;
    for (int q = 0; q < numQubits(); ++q) {
        phase += phaseExponent(x_[q], z_[q], rhs.x_[q], rhs.z_[q]);
        out.x_[q] = x_[q] ^ rhs.x_[q];
        out.z_[q] = z_[q] ^ rhs.z_[q];
    }
    out.setPhase(phase);
    return out;
}

bool
PauliString::commutesWith(const PauliString& rhs) const
{
    QA_REQUIRE(numQubits() == rhs.numQubits(),
               "commutation check size mismatch");
    int anticommutations = 0;
    for (int q = 0; q < numQubits(); ++q) {
        const bool sym = (x_[q] && rhs.z_[q]) != (z_[q] && rhs.x_[q]);
        if (sym) ++anticommutations;
    }
    return anticommutations % 2 == 0;
}

bool
PauliString::isIdentity() const
{
    for (int q = 0; q < numQubits(); ++q) {
        if (x_[q] || z_[q]) return false;
    }
    return true;
}

CMatrix
PauliString::toMatrix() const
{
    CMatrix m = CMatrix::identity(1);
    for (int q = 0; q < numQubits(); ++q) {
        CMatrix factor = CMatrix::identity(2);
        if (x_[q] && z_[q]) {
            factor = gates::y();
        } else if (x_[q]) {
            factor = gates::x();
        } else if (z_[q]) {
            factor = gates::z();
        }
        m = kron(m, factor);
    }
    static const Complex powers[4] = {1.0, kI, -1.0, -kI};
    return m * powers[phase_];
}

std::string
PauliString::toString() const
{
    static const char* prefixes[4] = {"+", "+i", "-", "-i"};
    std::string out = prefixes[phase_];
    for (int q = 0; q < numQubits(); ++q) {
        if (x_[q] && z_[q]) {
            out.push_back('Y');
        } else if (x_[q]) {
            out.push_back('X');
        } else if (z_[q]) {
            out.push_back('Z');
        } else {
            out.push_back('I');
        }
    }
    return out;
}

bool
PauliString::operator==(const PauliString& rhs) const
{
    return x_ == rhs.x_ && z_ == rhs.z_ && phase_ == rhs.phase_;
}

} // namespace qa
