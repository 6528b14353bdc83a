#include "sim/density.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/states.hpp"
#include "sim/kernels.hpp"

namespace qa
{

namespace
{

/**
 * Apply `m` to one axis of rho (axis 0 = row index, axis 1 = column
 * index). Row application computes M rho; column application computes
 * rho M^T (note: transpose, not dagger -- callers pass conj(M) to get
 * rho M^dagger).
 *
 * Row-major rho is one flat 2^(2n)-amplitude array whose index packs
 * (row << n) | col, so both axes reuse the statevector kernels: the
 * row axis places qubit q's bit at n + (n-1-q), the column axis at
 * n-1-q. The column sweep applies m row-wise over the column bits of
 * every row r, i.e. rho'(r, :) = (m * rho(r, :)^T)^T = rho * m^T.
 */
void
applyAxis(CMatrix& rho, const CMatrix& m, const std::vector<int>& qubits,
          int num_qubits, int axis)
{
    const int shift = axis == 0 ? num_qubits : 0;
    std::vector<int> pos(qubits.size());
    for (size_t j = 0; j < qubits.size(); ++j) {
        pos[j] = shift + num_qubits - 1 - qubits[j];
    }
    const uint64_t dim = uint64_t(rho.rows()) * rho.cols();
    applyDenseKernel(&rho(0, 0), dim, m, pos.data(), qubits.size(), true);
}

} // namespace

DensityState::DensityState(int num_qubits) : num_qubits_(num_qubits)
{
    QA_REQUIRE(num_qubits >= 1 && num_qubits <= 12,
               "density simulator supports 1..12 qubits");
    rho_ = CMatrix(size_t(1) << num_qubits, size_t(1) << num_qubits);
    rho_(0, 0) = 1.0;
}

DensityState::DensityState(CMatrix rho) : num_qubits_(0),
    rho_(std::move(rho))
{
    num_qubits_ = qubitCountForDim(rho_.rows());
    QA_REQUIRE(rho_.isDensityMatrix(1e-6),
               "matrix is not a valid density matrix");
}

void
DensityState::applyMatrix(const CMatrix& m, const std::vector<int>& qubits)
{
    for (int q : qubits) {
        QA_REQUIRE(q >= 0 && q < num_qubits_, "qubit index out of range");
    }
    applyAxis(rho_, m, qubits, num_qubits_, 0);
    applyAxis(rho_, m.conjugate(), qubits, num_qubits_, 1);
}

void
DensityState::applyGate(const Instruction& instr, const NoiseModel* noise)
{
    QA_REQUIRE(instr.isGate(), "applyGate needs a gate instruction");
    applyMatrix(instr.matrix, instr.qubits);
    if (noise == nullptr) return;
    for (int q : instr.qubits) {
        for (const KrausChannel& channel : noise->channelsFor(instr)) {
            applyKraus(channel, q);
        }
    }
}

void
DensityState::applyKraus(const KrausChannel& channel, int q)
{
    // rho'(r, c) = sum_k sum_{r', c'} K_k(r, r') conj(K_k(c, c'))
    // rho(r', c') on qubit q's row and column bits: one 4x4
    // superoperator S = sum_k K_k (x) conj(K_k) over (row bit, column
    // bit), applied in place in one sweep of the flat rho.
    CMatrix super(4, 4);
    for (const CMatrix& k : channel.ops()) super += kron(k, k.conjugate());
    const int pos[2] = {2 * num_qubits_ - 1 - q, num_qubits_ - 1 - q};
    const uint64_t dim = uint64_t(rho_.rows()) * rho_.cols();
    applyDenseKernel(&rho_(0, 0), dim, super, pos, 2, true);
}

double
DensityState::probabilityOne(int q) const
{
    QA_REQUIRE(q >= 0 && q < num_qubits_, "qubit index out of range");
    const uint64_t mask = uint64_t(1) << (num_qubits_ - 1 - q);
    double prob = 0.0;
    for (uint64_t i = 0; i < rho_.rows(); ++i) {
        if (i & mask) prob += rho_(i, i).real();
    }
    return prob;
}

void
DensityState::collapse(int q, int outcome)
{
    QA_REQUIRE(outcome == 0 || outcome == 1, "outcome must be 0 or 1");
    const uint64_t mask = uint64_t(1) << (num_qubits_ - 1 - q);
    double kept = 0.0;
    for (uint64_t r = 0; r < rho_.rows(); ++r) {
        const bool rbit = (r & mask) != 0;
        for (uint64_t c = 0; c < rho_.cols(); ++c) {
            const bool cbit = (c & mask) != 0;
            if (rbit != (outcome == 1) || cbit != (outcome == 1)) {
                rho_(r, c) = 0.0;
            } else if (r == c) {
                kept += rho_(r, c).real();
            }
        }
    }
    QA_REQUIRE(kept > 1e-14, "collapse onto a zero-probability outcome");
    rho_ *= Complex(1.0 / kept, 0.0);
}

void
DensityState::applyX(int q)
{
    applyMatrix(CMatrix{{0, 1}, {1, 0}}, {q});
}

CMatrix
finalDensity(const QuantumCircuit& circuit, const NoiseModel* noise)
{
    const NoiseModel* active = activeNoise(noise);
    DensityState state(circuit.numQubits());
    for (const Instruction& instr : circuit.instructions()) {
        QA_REQUIRE(instr.type == OpType::kGate ||
                       instr.type == OpType::kBarrier,
                   "finalDensity requires a measurement-free circuit");
        if (instr.type == OpType::kGate) state.applyGate(instr, active);
    }
    return state.rho();
}

} // namespace qa
