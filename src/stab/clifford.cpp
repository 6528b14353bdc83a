#include "stab/clifford.hpp"

#include <cmath>

#include "circuit/stdgates.hpp"
#include "common/error.hpp"

namespace qa
{

namespace
{

/** Local Pauli with the given symplectic bits (phase 0). */
PauliString
localPauli(int k, const std::vector<uint8_t>& xs,
           const std::vector<uint8_t>& zs)
{
    PauliString p(k);
    for (int j = 0; j < k; ++j) {
        p.setX(j, xs[size_t(j)] != 0);
        p.setZ(j, zs[size_t(j)] != 0);
    }
    return p;
}

/** Entry-wise comparison of two equally-shaped matrices. */
bool
matricesClose(const CMatrix& a, const CMatrix& b, double tol)
{
    for (size_t r = 0; r < a.rows(); ++r) {
        for (size_t c = 0; c < a.cols(); ++c) {
            if (std::abs(a(r, c) - b(r, c)) > tol) return false;
        }
    }
    return true;
}

/**
 * Match a dense 2^k x 2^k matrix against the signed Pauli group:
 * iterate the 4^k symplectic candidates with phase + and -, comparing
 * entry-wise. Returns nullopt when nothing matches.
 */
std::optional<PauliString>
matchSignedPauli(const CMatrix& m, int k, double tol)
{
    std::vector<uint8_t> xs(size_t(k), 0), zs(size_t(k), 0);
    const uint32_t combos = uint32_t(1) << (2 * k);
    for (uint32_t bits = 0; bits < combos; ++bits) {
        for (int j = 0; j < k; ++j) {
            xs[size_t(j)] = uint8_t((bits >> (2 * j)) & 1);
            zs[size_t(j)] = uint8_t((bits >> (2 * j + 1)) & 1);
        }
        PauliString candidate = localPauli(k, xs, zs);
        for (int sign = 0; sign < 2; ++sign) {
            candidate.setPhase(sign == 0 ? 0 : 2);
            if (matricesClose(m, candidate.toMatrix(), tol)) {
                return candidate;
            }
        }
    }
    return std::nullopt;
}

} // namespace

std::optional<CliffordAction>
recognizeCliffordMatrix(const CMatrix& u, double tol)
{
    if (u.rows() != u.cols()) return std::nullopt;
    int k = 0;
    if (u.rows() == 2) {
        k = 1;
    } else if (u.rows() == 4) {
        k = 2;
    } else {
        // Conservative: 3+-qubit gates are treated as non-Clifford
        // (none of the circuit builders emit Clifford gates that wide).
        return std::nullopt;
    }

    const CMatrix udag = u.dagger();
    CliffordAction action;
    action.arity = k;
    std::vector<uint8_t> xs(size_t(k), 0), zs(size_t(k), 0);
    for (int j = 0; j < k; ++j) {
        for (int which = 0; which < 2; ++which) {
            std::fill(xs.begin(), xs.end(), uint8_t(0));
            std::fill(zs.begin(), zs.end(), uint8_t(0));
            (which == 0 ? xs : zs)[size_t(j)] = 1;
            const CMatrix generator = localPauli(k, xs, zs).toMatrix();
            const CMatrix image = u * generator * udag;
            std::optional<PauliString> pauli =
                matchSignedPauli(image, k, tol);
            if (!pauli) return std::nullopt;
            (which == 0 ? action.x_images : action.z_images)
                .push_back(std::move(*pauli));
        }
    }
    return action;
}

bool
isNamedCliffordGate(const Instruction& instr)
{
    if (!instr.isGate()) return false;
    const GateDef* def = findGate(instr.name);
    return def != nullptr && def->tableau_native;
}

std::optional<CliffordAction>
recognizeClifford(const Instruction& instr)
{
    if (!instr.isGate()) return std::nullopt;
    return recognizeCliffordMatrix(instr.matrix);
}

namespace
{

/** Embed a k-qubit local Pauli onto n qubits via the placement map. */
PauliString
embedPauli(const PauliString& local, int n, const std::vector<int>& qubits)
{
    PauliString out(n);
    out.setPhase(local.phase());
    for (int j = 0; j < local.numQubits(); ++j) {
        out.setX(qubits[size_t(j)], local.x(j));
        out.setZ(qubits[size_t(j)], local.z(j));
    }
    return out;
}

} // namespace

PauliString
conjugatePauli(const PauliString& pauli, const CliffordAction& action,
               const std::vector<int>& qubits)
{
    QA_REQUIRE(int(qubits.size()) == action.arity,
               "conjugatePauli: qubit list does not match the action");
    const int n = pauli.numQubits();

    // Factors outside the gate's support commute with U and survive
    // unchanged; the original phase rides along.
    PauliString out(n);
    out.setPhase(pauli.phase());
    std::vector<bool> local(size_t(n), false);
    for (int q : qubits) {
        QA_REQUIRE(q >= 0 && q < n, "conjugatePauli: qubit out of range");
        local[size_t(q)] = true;
    }
    for (int q = 0; q < n; ++q) {
        if (local[size_t(q)]) continue;
        out.setX(q, pauli.x(q));
        out.setZ(q, pauli.z(q));
    }

    // Each local factor maps to a product of the generator images:
    // X -> x_image, Z -> z_image, Y = i X Z -> i * x_image * z_image.
    // Distinct local qubits' factors act on disjoint wires and commute,
    // so multiplying the images in qubit order is phase-exact.
    for (size_t j = 0; j < qubits.size(); ++j) {
        const int q = qubits[j];
        const bool fx = pauli.x(q);
        const bool fz = pauli.z(q);
        if (!fx && !fz) continue;
        if (fx && fz) out.setPhase(out.phase() + 1); // Y = i X Z
        if (fx) out = out * embedPauli(action.x_images[j], n, qubits);
        if (fz) out = out * embedPauli(action.z_images[j], n, qubits);
    }
    return out;
}

} // namespace qa
