#include "stab/clifford.hpp"

#include <bit>
#include <cmath>

#include "circuit/stdgates.hpp"
#include "common/error.hpp"

namespace qa
{

namespace
{

/** Entry-wise tolerance of the signed-Pauli match. */
constexpr double kTol = 1e-9;

/** A gate matrix of up to 2 qubits, on the stack. */
using Local = std::array<std::array<Complex, 4>, 4>;

Complex
iPow(int e)
{
    static const Complex powers[4] = {1.0, kI, -1.0, -kI};
    return powers[e & 3];
}

/**
 * Local qubit j is bit k-1-j of a matrix index; this maps a mask over
 * one numbering to the same qubits in the other (it is its own inverse).
 */
uint32_t
reverseBits(uint32_t mask, int k)
{
    uint32_t out = 0;
    for (int j = 0; j < k; ++j) {
        if ((mask >> j) & 1) out |= 1u << (k - 1 - j);
    }
    return out;
}

/**
 * U P U^dag for P = i^{|x&z|} X^x Z^z (x, z matrix-index masks). P
 * sends |c> to i^{|x&z|} (-1)^{z.c} |c ^ x>, so U P is U with its
 * columns permuted and phased; only the product with U^dag is general.
 */
Local
conjugateByPauli(const Local& u, uint32_t d, uint32_t x, uint32_t z)
{
    const Complex lead = iPow(std::popcount(x & z));
    Local up{}, out{};
    for (uint32_t r = 0; r < d; ++r) {
        for (uint32_t c = 0; c < d; ++c) {
            up[r][c] = u[r][c ^ x] *
                       ((std::popcount(z & c) & 1) != 0 ? -lead : lead);
        }
    }
    for (uint32_t r = 0; r < d; ++r) {
        for (uint32_t c = 0; c < d; ++c) {
            Complex sum = 0.0;
            for (uint32_t m = 0; m < d; ++m) {
                sum += up[r][m] * std::conj(u[c][m]);
            }
            out[r][c] = sum;
        }
    }
    return out;
}

/** i^phase * P over the local qubits (x, z: local-qubit masks). */
struct LocalPauli
{
    uint32_t x = 0;
    uint32_t z = 0;
    int phase = 0;
};

LocalPauli
times(const LocalPauli& a, const LocalPauli& b, int k)
{
    int phase = a.phase + b.phase;
    for (int j = 0; j < k; ++j) {
        phase += phaseExponent((a.x >> j) & 1, (a.z >> j) & 1,
                               (b.x >> j) & 1, (b.z >> j) & 1);
    }
    return {a.x ^ b.x, a.z ^ b.z, phase & 3};
}

/**
 * The signed Pauli that m equals entry-wise within kTol, or nullopt. A
 * Pauli's column 0 is nonzero only in row x, and its column 2^b differs
 * from column 0 in sign exactly when z has bit b, so the one candidate
 * is read off those entries and then checked against every entry.
 */
std::optional<LocalPauli>
readSignedPauli(const Local& m, int k)
{
    const uint32_t d = 1u << k;
    uint32_t x = 0;
    while (x < d && std::abs(m[x][0]) < 0.5) ++x;
    if (x == d) return std::nullopt;
    uint32_t z = 0;
    for (int b = 0; b < k; ++b) {
        const uint32_t c = 1u << b;
        if (std::real(m[x ^ c][c] * std::conj(m[x][0])) < 0.0) z |= c;
    }
    const Complex lead = iPow(std::popcount(x & z));
    const bool minus = std::real(m[x][0] * std::conj(lead)) < 0.0;
    for (uint32_t r = 0; r < d; ++r) {
        for (uint32_t c = 0; c < d; ++c) {
            Complex expected = 0.0;
            if (r == (c ^ x)) {
                const bool flip = minus != ((std::popcount(z & c) & 1) != 0);
                expected = flip ? -lead : lead;
            }
            if (std::abs(m[r][c] - expected) > kTol) return std::nullopt;
        }
    }
    return LocalPauli{reverseBits(x, k), reverseBits(z, k), minus ? 2 : 0};
}

/**
 * Recognize a 2x2 or 4x4 unitary: conjugate each of the 2k local
 * generators, match each image to a signed Pauli, and fill the rest of
 * the table by multiplying generator images (P_p = i^{|x&z|} X^x Z^z).
 */
std::optional<CliffordAction>
recognize(const CMatrix& u)
{
    if (u.rows() != u.cols() || (u.rows() != 2 && u.rows() != 4)) {
        // Conservative: 3+-qubit gates are treated as non-Clifford
        // (none of the circuit builders emit Clifford gates that wide).
        return std::nullopt;
    }
    const int k = u.rows() == 2 ? 1 : 2;
    const uint32_t d = 1u << k;
    Local local{};
    for (uint32_t r = 0; r < d; ++r) {
        for (uint32_t c = 0; c < d; ++c) local[r][c] = u(r, c);
    }

    // generators[b]: the image of the local Pauli with only bit b set.
    std::array<LocalPauli, 4> generators{};
    for (int b = 0; b < 2 * k; ++b) {
        const uint32_t bit = reverseBits(1u << (b % k), k);
        const Local image = conjugateByPauli(local, d, b < k ? bit : 0,
                                             b < k ? 0 : bit);
        const std::optional<LocalPauli> pauli = readSignedPauli(image, k);
        if (!pauli) return std::nullopt;
        generators[size_t(b)] = *pauli;
    }

    CliffordAction action;
    action.arity = k;
    const uint32_t low = d - 1;
    for (uint32_t p = 1; p < d * d; ++p) {
        LocalPauli acc{0, 0, std::popcount((p & low) & (p >> k))};
        for (int b = 0; b < 2 * k; ++b) {
            if ((p >> b) & 1) acc = times(acc, generators[size_t(b)], k);
        }
        QA_ASSERT(acc.phase % 2 == 0,
                  "Clifford conjugation left the signed Pauli group");
        action.image[p] = uint8_t(acc.x | acc.z << k) |
                          (acc.phase != 0 ? CliffordAction::kMinus : 0);
    }
    return action;
}

/** The actions of the parameterless gate-table rows, by GateId. */
const std::vector<std::optional<CliffordAction>>&
rowActions()
{
    static const std::vector<std::optional<CliffordAction>> actions = [] {
        std::vector<std::optional<CliffordAction>> out;
        for (const GateDef& def : gateTable()) {
            out.push_back(def.num_params == 0
                              ? recognize(def.matrix(nullptr))
                              : std::nullopt);
        }
        return out;
    }();
    return actions;
}

} // namespace

std::optional<CliffordAction>
cliffordAction(const Instruction& instr)
{
    if (!instr.isGate()) return std::nullopt;
    const GateDef* def = findGate(instr.name);
    if (def != nullptr && def->num_params == 0 &&
        size_t(def->num_qubits) == instr.arity()) {
        return rowActions()[size_t(def->id)];
    }
    return recognize(instr.matrix);
}

PauliString
conjugatePauli(const PauliString& pauli, const CliffordAction& action,
               const std::vector<int>& qubits)
{
    const int k = action.arity;
    QA_REQUIRE(int(qubits.size()) == k,
               "conjugatePauli: qubit list does not match the action");
    const int n = pauli.numQubits();
    uint32_t p = 0;
    for (int j = 0; j < k; ++j) {
        const int q = qubits[size_t(j)];
        QA_REQUIRE(q >= 0 && q < n, "conjugatePauli: qubit out of range");
        p |= uint32_t(pauli.x(q)) << j | uint32_t(pauli.z(q)) << (k + j);
    }

    // Factors outside the gate's support commute with U and survive
    // unchanged, and so does the original phase.
    const uint8_t code = action.image[p];
    PauliString out = pauli;
    for (int j = 0; j < k; ++j) {
        out.setX(qubits[size_t(j)], (code >> j) & 1);
        out.setZ(qubits[size_t(j)], (code >> (k + j)) & 1);
    }
    if (code & CliffordAction::kMinus) out.setPhase(out.phase() + 2);
    return out;
}

} // namespace qa
