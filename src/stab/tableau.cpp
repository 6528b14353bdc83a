#include "stab/tableau.hpp"

#include "common/error.hpp"

namespace qa
{

StabilizerTableau::StabilizerTableau(int n) : n_(n)
{
    QA_REQUIRE(n >= 1 && n <= kTableauMaxQubits, "tableau size out of range");
    x_.assign(size_t(2 * n), std::vector<uint8_t>(size_t(n), 0));
    z_ = x_;
    r_.assign(size_t(2 * n), 0);
    for (int q = 0; q < n; ++q) {
        x_[q][q] = 1;      // destabilizer X_q
        z_[n + q][q] = 1;  // stabilizer Z_q
    }
}

void
StabilizerTableau::applyX(int q)
{
    for (int i = 0; i < 2 * n_; ++i) r_[i] ^= z_[i][q];
}

void
StabilizerTableau::applyY(int q)
{
    for (int i = 0; i < 2 * n_; ++i) r_[i] ^= x_[i][q] ^ z_[i][q];
}

void
StabilizerTableau::applyZ(int q)
{
    for (int i = 0; i < 2 * n_; ++i) r_[i] ^= x_[i][q];
}

void
StabilizerTableau::applyClifford(const CliffordAction& action,
                                 const std::vector<int>& qubits)
{
    const int k = action.arity;
    QA_REQUIRE(int(qubits.size()) == k && (k == 1 || k == 2),
               "Clifford action arity does not match the qubit list");
    for (int q : qubits) {
        QA_REQUIRE(q >= 0 && q < n_, "qubit index out of range");
    }

    // Each row's local factor is one index into the action's table (see
    // CliffordAction); the image's bits replace it and its sign flips r.
    constexpr uint8_t kMinus = CliffordAction::kMinus;
    const int a = qubits[0];
    if (k == 1) {
        for (int i = 0; i < 2 * n_; ++i) {
            uint8_t& xa = x_[i][a];
            uint8_t& za = z_[i][a];
            const uint8_t code = action.image[xa | za << 1];
            xa = code & 1;
            za = (code >> 1) & 1;
            r_[i] ^= uint8_t((code & kMinus) != 0);
        }
        return;
    }
    const int b = qubits[1];
    for (int i = 0; i < 2 * n_; ++i) {
        uint8_t* x = x_[i].data();
        uint8_t* z = z_[i].data();
        const uint8_t code =
            action.image[x[a] | x[b] << 1 | z[a] << 2 | z[b] << 3];
        x[a] = code & 1;
        x[b] = (code >> 1) & 1;
        z[a] = (code >> 2) & 1;
        z[b] = (code >> 3) & 1;
        r_[i] ^= uint8_t((code & kMinus) != 0);
    }
}

void
StabilizerTableau::rowMult(int h, int i)
{
    int exponent = 2 * r_[h] + 2 * r_[i];
    for (int q = 0; q < n_; ++q) {
        exponent += phaseExponent(x_[i][q], z_[i][q], x_[h][q], z_[h][q]);
        x_[h][q] ^= x_[i][q];
        z_[h][q] ^= z_[i][q];
    }
    exponent = ((exponent % 4) + 4) % 4;
    QA_ASSERT(exponent % 2 == 0, "stabilizer product left the group");
    r_[h] = uint8_t(exponent / 2);
}

bool
StabilizerTableau::isDeterministic(int q) const
{
    for (int i = n_; i < 2 * n_; ++i) {
        if (x_[i][q]) return false;
    }
    return true;
}

int
StabilizerTableau::measure(int q, Rng& rng)
{
    QA_REQUIRE(q >= 0 && q < n_, "qubit index out of range");
    int p = -1;
    for (int i = n_; i < 2 * n_; ++i) {
        if (x_[i][q]) {
            p = i;
            break;
        }
    }

    if (p >= 0) {
        // Random outcome: update every other anticommuting row.
        for (int i = 0; i < 2 * n_; ++i) {
            if (i != p && x_[i][q]) rowMult(i, p);
        }
        // Destabilizer p-n becomes the old stabilizer row p.
        x_[p - n_] = x_[p];
        z_[p - n_] = z_[p];
        r_[p - n_] = r_[p];
        // New stabilizer: (-1)^outcome Z_q.
        const int outcome = rng.bernoulli(0.5) ? 1 : 0;
        std::fill(x_[p].begin(), x_[p].end(), uint8_t(0));
        std::fill(z_[p].begin(), z_[p].end(), uint8_t(0));
        z_[p][q] = 1;
        r_[p] = uint8_t(outcome);
        return outcome;
    }

    // Deterministic outcome: accumulate the matching stabilizers into a
    // scratch row seeded to identity.
    std::vector<uint8_t> sx(n_, 0), sz(n_, 0);
    int exponent = 0;
    for (int i = 0; i < n_; ++i) {
        if (!x_[i][q]) continue; // destabilizer i anticommutes with Z_q
        exponent += 2 * r_[i + n_];
        for (int qq = 0; qq < n_; ++qq) {
            exponent += phaseExponent(x_[i + n_][qq], z_[i + n_][qq],
                                      sx[qq], sz[qq]);
            sx[qq] ^= x_[i + n_][qq];
            sz[qq] ^= z_[i + n_][qq];
        }
    }
    exponent = ((exponent % 4) + 4) % 4;
    QA_ASSERT(exponent % 2 == 0, "deterministic phase left the group");
    return exponent / 2;
}

PauliString
StabilizerTableau::stabilizer(int i) const
{
    QA_REQUIRE(i >= 0 && i < n_, "stabilizer index out of range");
    PauliString p(n_);
    for (int q = 0; q < n_; ++q) {
        p.setX(q, x_[n_ + i][q]);
        p.setZ(q, z_[n_ + i][q]);
    }
    p.setPhase(2 * r_[n_ + i]);
    return p;
}

PauliString
StabilizerTableau::destabilizer(int i) const
{
    QA_REQUIRE(i >= 0 && i < n_, "destabilizer index out of range");
    PauliString p(n_);
    for (int q = 0; q < n_; ++q) {
        p.setX(q, x_[i][q]);
        p.setZ(q, z_[i][q]);
    }
    p.setPhase(2 * r_[i]);
    return p;
}

CVector
StabilizerTableau::toStatevector() const
{
    QA_REQUIRE(n_ <= 10, "dense conversion supported up to 10 qubits");
    const size_t dim = size_t(1) << n_;
    CMatrix projector = CMatrix::identity(dim);
    for (int i = 0; i < n_; ++i) {
        const CMatrix s = stabilizer(i).toMatrix();
        projector = projector * ((CMatrix::identity(dim) + s) *
                                 Complex(0.5, 0.0));
    }
    for (size_t j = 0; j < dim; ++j) {
        CVector candidate = projector * CVector::basisState(dim, j);
        if (candidate.norm() > 1e-6) return candidate.normalized();
    }
    QA_ASSERT(false, "stabilizer projector annihilated every basis state");
    return CVector(dim);
}

StabilizerTableau
runClifford(const QuantumCircuit& circuit)
{
    StabilizerTableau tableau(circuit.numQubits());
    for (const Instruction& instr : circuit.instructions()) {
        QA_REQUIRE(instr.type == OpType::kGate ||
                       instr.type == OpType::kBarrier,
                   "runClifford requires a measurement-free circuit");
        if (instr.type != OpType::kGate) continue;
        const std::optional<CliffordAction> action = cliffordAction(instr);
        QA_REQUIRE(action.has_value(), "non-Clifford gate '" + instr.name +
                                           "' in stabilizer simulation");
        tableau.applyClifford(*action, instr.qubits);
    }
    return tableau;
}

} // namespace qa
