#include "backend/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "stab/clifford.hpp"

namespace qa
{
namespace backend
{

namespace
{

/** How many non-Clifford gates still count as "Clifford plus few". */
constexpr int kFewNonCliffordMax = 8;

/** Cap on the unique-name list so profiles stay small. */
constexpr size_t kMaxNonCliffordNames = 8;

} // namespace

const char*
circuitClassName(CircuitClass klass)
{
    switch (klass) {
      case CircuitClass::kClifford: return "clifford";
      case CircuitClass::kCliffordPlusFew: return "clifford_plus_few";
      case CircuitClass::kGeneral: return "general";
    }
    return "unknown";
}

CircuitProfile
analyzeCircuit(const QuantumCircuit& circuit)
{
    CircuitProfile profile;
    profile.num_qubits = circuit.numQubits();
    profile.num_clbits = circuit.numClbits();

    const auto& instrs = circuit.instructions();
    profile.instructions = instrs.size();

    // Index of the first measurement; instructions after it must all be
    // measure/barrier for the terminal-only shape to hold.
    size_t first_measure = instrs.size();
    bool terminal_only = true;

    for (size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& instr = instrs[i];
        switch (instr.type) {
          case OpType::kGate: {
            ++profile.gates;
            if (first_measure < i) terminal_only = false;
            if (cliffordAction(instr)) break;
            ++profile.non_clifford_gates;
            auto& names = profile.non_clifford_names;
            if (names.size() < kMaxNonCliffordNames &&
                std::find(names.begin(), names.end(), instr.name) ==
                    names.end()) {
                names.push_back(instr.name);
            }
            break;
          }
          case OpType::kMeasure:
            ++profile.measures;
            if (first_measure == instrs.size()) first_measure = i;
            profile.terminal_measures.emplace_back(instr.qubits[0],
                                                   instr.cbit);
            break;
          case OpType::kReset:
            ++profile.resets;
            terminal_only = false;
            break;
          case OpType::kBarrier:
            break;
        }
    }

    profile.terminal_measure_only = terminal_only && profile.resets == 0;
    if (!profile.terminal_measure_only) profile.terminal_measures.clear();

    if (profile.non_clifford_gates == 0) {
        profile.klass = CircuitClass::kClifford;
    } else if (profile.non_clifford_gates <= kFewNonCliffordMax) {
        profile.klass = CircuitClass::kCliffordPlusFew;
    } else {
        profile.klass = CircuitClass::kGeneral;
    }
    return profile;
}

NoiseProfile
analyzeNoise(const NoiseModel* noise)
{
    NoiseProfile profile;
    if (noise == nullptr || !noise->enabled()) return profile;
    profile.enabled = true;
    profile.kraus = !noise->noise_1q.empty() || !noise->noise_2q.empty();
    profile.readout =
        noise->readout_p01 > 0.0 || noise->readout_p10 > 0.0;
    const auto recognize = [](const std::vector<KrausChannel>& channels,
                              std::vector<PauliChannel>* out) {
        for (const KrausChannel& channel : channels) {
            std::optional<PauliChannel> pauli =
                recognizePauliChannel(channel);
            if (!pauli) return false;
            out->push_back(std::move(*pauli));
        }
        return true;
    };
    profile.pauli_only = recognize(noise->noise_1q, &profile.pauli_1q) &&
                         recognize(noise->noise_2q, &profile.pauli_2q);
    if (!profile.pauli_only) {
        profile.pauli_1q.clear();
        profile.pauli_2q.clear();
    }
    return profile;
}

EntanglementProfile
analyzeEntanglement(const QuantumCircuit& circuit)
{
    EntanglementProfile ent;
    const int n = circuit.numQubits();
    if (n < 1) return ent;

    // crossings[k] = multi-qubit gates spanning the cut between sites
    // k and k+1, for 0 <= k < n - 1.
    std::vector<size_t> crossings(n > 1 ? size_t(n - 1) : 0, 0);
    for (const Instruction& instr : circuit.instructions()) {
        if (!instr.isGate()) continue;
        const int arity = int(instr.qubits.size());
        ent.max_gate_arity = std::max(ent.max_gate_arity, arity);
        if (arity < 2) continue;
        const auto [lo_it, hi_it] =
            std::minmax_element(instr.qubits.begin(), instr.qubits.end());
        const int lo = *lo_it;
        const int hi = *hi_it;
        for (int k = lo; k < hi; ++k) ++crossings[size_t(k)];
        const size_t dist = size_t(hi - lo);
        if (dist > 1) ++ent.long_range_gates;
        // One update per gate plus a there-and-back SWAP chain.
        ent.swap_routed_ops += 1 + 2 * (dist - 1);
    }

    for (size_t k = 0; k < crossings.size(); ++k) {
        ent.max_cut_crossings =
            std::max(ent.max_cut_crossings, crossings[k]);
        // Schmidt rank at cut k is capped both by the crossing count
        // (each crossing at most doubles it) and the Hilbert dimension
        // of the smaller side.
        const size_t dim_exp = std::min(k + 1, size_t(n) - k - 1);
        const size_t needed = std::min(crossings[k], dim_exp);
        ent.needed_log2_chi =
            std::max(ent.needed_log2_chi, int(needed));
    }
    return ent;
}

namespace
{

/** floor(log2(chi_cap)) for chi_cap >= 1. */
int
log2Floor(int chi_cap)
{
    int bits = 0;
    while ((1 << (bits + 1)) <= chi_cap) ++bits;
    return bits;
}

} // namespace

int
mpsEffectiveChi(const EntanglementProfile& ent, int chi_cap)
{
    if (chi_cap < 1) chi_cap = 1;
    if (ent.needed_log2_chi >= 30) return chi_cap;
    return std::min(chi_cap, 1 << ent.needed_log2_chi);
}

double
mpsTruncationBound(const EntanglementProfile& ent, int chi_cap)
{
    if (chi_cap < 1) chi_cap = 1;
    const int capbits = log2Floor(chi_cap);
    if (ent.needed_log2_chi <= capbits) return 0.0;
    return 1.0 - std::ldexp(1.0, capbits - ent.needed_log2_chi);
}

std::optional<PauliChannel>
recognizePauliChannel(const KrausChannel& channel)
{
    constexpr double kTol = 1e-9;
    // Single-qubit Paulis in symplectic order (x, z): I, X, Z, Y.
    struct Basis
    {
        uint8_t x, z;
        Complex m[2][2];
    };
    static const Complex kZero(0.0, 0.0), kOne(1.0, 0.0);
    static const Basis kPaulis[4] = {
        {0, 0, {{kOne, kZero}, {kZero, kOne}}},            // I
        {1, 0, {{kZero, kOne}, {kOne, kZero}}},            // X
        {0, 1, {{kOne, kZero}, {kZero, Complex(-1, 0)}}},  // Z
        {1, 1, {{kZero, Complex(0, -1)}, {Complex(0, 1), kZero}}}, // Y
    };

    PauliChannel result;
    for (const CMatrix& op : channel.ops()) {
        if (op.rows() != 2 || op.cols() != 2) return std::nullopt;
        int match = -1;
        Complex coeff;
        for (int p = 0; p < 4; ++p) {
            // c = tr(P^dag K) / 2; P is Hermitian so P^dag = P.
            Complex c(0.0, 0.0);
            for (int r = 0; r < 2; ++r) {
                for (int col = 0; col < 2; ++col) {
                    c += std::conj(kPaulis[p].m[r][col]) *
                         op(size_t(r), size_t(col));
                }
            }
            c *= 0.5;
            if (std::abs(c) <= kTol) continue;
            if (match >= 0) return std::nullopt; // mixes two Paulis
            match = p;
            coeff = c;
        }
        if (match < 0) return std::nullopt; // zero operator
        result.weights.push_back(std::norm(coeff));
        result.paulis.emplace_back(kPaulis[match].x, kPaulis[match].z);
    }
    if (result.weights.empty()) return std::nullopt;
    return result;
}

} // namespace backend
} // namespace qa
