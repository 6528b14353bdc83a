#include "acomp/lowering.hpp"

#include <cstdint>

#include "common/error.hpp"
#include "core/builders.hpp"
#include "stab/clifford.hpp"
#include "stab/observables.hpp"

namespace qa
{
namespace acomp
{

const char*
formName(LoweringForm form)
{
    switch (form) {
      case LoweringForm::kSwap:         return "swap";
      case LoweringForm::kOr:           return "or";
      case LoweringForm::kNdd:          return "ndd";
      case LoweringForm::kPauliMeasure: return "pauli";
    }
    return "unknown";
}

const char*
loweringRequestName(LoweringRequest request)
{
    switch (request) {
      case LoweringRequest::kAuto:         return "auto";
      case LoweringRequest::kSwap:         return "swap";
      case LoweringRequest::kOr:           return "or";
      case LoweringRequest::kNdd:          return "ndd";
      case LoweringRequest::kPauliMeasure: return "pauli";
    }
    return "unknown";
}

bool
parseLoweringRequest(const std::string& name, LoweringRequest* out)
{
    if (name == "auto") { *out = LoweringRequest::kAuto; return true; }
    if (name == "swap") { *out = LoweringRequest::kSwap; return true; }
    if (name == "or")   { *out = LoweringRequest::kOr; return true; }
    if (name == "ndd")  { *out = LoweringRequest::kNdd; return true; }
    if (name == "pauli" || name == "pauli_measure") {
        *out = LoweringRequest::kPauliMeasure;
        return true;
    }
    return false;
}

const char*
invariantClassName(InvariantClass klass)
{
    switch (klass) {
      case InvariantClass::kUserState:     return "user_state";
      case InvariantClass::kClassical:     return "classical";
      case InvariantClass::kSuperposition: return "superposition";
      case InvariantClass::kEntangled:     return "entangled";
    }
    return "unknown";
}

namespace
{

/** popcount for the F2 index masks. */
int
parity64(uint64_t v)
{
    int p = 0;
    while (v != 0) {
        p ^= 1;
        v &= v - 1;
    }
    return p;
}

/**
 * F2 row space kept in reduced row-echelon form: every stored row's
 * pivot (lowest set bit) appears in no other row, so null-space vectors
 * can be read off pivot-by-pivot.
 */
struct F2Rref
{
    std::vector<uint64_t> rows;

    /** Reduce `v` against every stored pivot. */
    uint64_t reduce(uint64_t v) const
    {
        for (uint64_t r : rows) {
            const uint64_t pivot = r & ~(r - 1);
            if ((v & pivot) != 0) v ^= r;
        }
        return v;
    }

    /** Insert `v`'s residual; returns false when v was dependent. */
    bool insert(uint64_t v)
    {
        v = reduce(v);
        if (v == 0) return false;
        const uint64_t pivot = v & ~(v - 1);
        for (uint64_t& r : rows) {
            if ((r & pivot) != 0) r ^= v;
        }
        rows.push_back(v);
        return true;
    }
};

/**
 * Affine computational-basis path: indices = x0 + D for an F2-linear D.
 * Generators are (-1)^{h.x0} Z^h over a null-space basis of D. Index
 * bit (n-1-q) addresses qubit q (qubit 0 is the MSB).
 */
std::optional<std::vector<PauliString>>
affineGenerators(const CorrectSubspace& subspace)
{
    const int n = subspace.n;
    if (n > 63) return std::nullopt;
    const std::vector<uint64_t>& indices = subspace.basis_indices;
    const uint64_t x0 = indices[0];

    // Row-reduce the difference set; D must be exactly its span.
    F2Rref span;
    for (uint64_t idx : indices) span.insert(idx ^ x0);
    if ((uint64_t(1) << span.rows.size()) != indices.size()) {
        return std::nullopt; // Not XOR-closed around x0.
    }

    // Null space of the span: pivots determine, free bits generate.
    uint64_t pivots = 0;
    for (uint64_t r : span.rows) pivots |= r & ~(r - 1);
    std::vector<PauliString> gens;
    for (int f = 0; f < n; ++f) {
        const uint64_t fbit = uint64_t(1) << f;
        if ((pivots & fbit) != 0) continue;
        uint64_t h = fbit;
        for (uint64_t r : span.rows) {
            const uint64_t pivot = r & ~(r - 1);
            if ((r & fbit) != 0) h |= pivot;
        }
        PauliString g(n);
        for (int q = 0; q < n; ++q) {
            if ((h >> (n - 1 - q)) & 1) g.setZ(q, true);
        }
        g.setPhase(parity64(h & x0) != 0 ? 2 : 0);
        gens.push_back(std::move(g));
    }
    return gens;
}

/** Brute-force verification budget: 2^n amplitudes per check. */
constexpr int kVerifyMaxQubits = 12;

/** True when every basis vector is stabilized by every generator. */
bool
generatorsStabilize(const std::vector<PauliString>& gens,
                    const CorrectSubspace& subspace)
{
    for (const PauliString& g : gens) {
        for (const CVector& v : subspace.basis) {
            if (!stabilizes(g, v)) return false;
        }
    }
    return true;
}

/**
 * Clifford-conjugation path: the correct subspace is u applied to the
 * span of basis states whose flag qubits read |0>, i.e. the joint +1
 * eigenspace of {u Z_f u^dag}. Fails when any basis-change gate is not
 * recognizably Clifford.
 */
std::optional<std::vector<PauliString>>
conjugationGenerators(const CorrectSubspace& subspace)
{
    const int n = subspace.n;
    std::optional<BasisChange> bc;
    try {
        bc = buildBasisChange(subspace.basis, n);
    } catch (const UserError&) {
        return std::nullopt;
    }

    std::vector<PauliString> gens;
    for (int f : bc->flag_qubits) {
        PauliString p(n);
        p.setZ(f, true);
        for (const Instruction& instr : bc->u.instructions()) {
            if (instr.type == OpType::kBarrier) continue;
            const std::optional<CliffordAction> action =
                recognizeClifford(instr);
            if (!action.has_value()) return std::nullopt;
            p = conjugatePauli(p, *action, instr.qubits);
        }
        if (p.phase() != 0 && p.phase() != 2) return std::nullopt;
        gens.push_back(std::move(p));
    }
    if (n <= kVerifyMaxQubits && !generatorsStabilize(gens, subspace)) {
        return std::nullopt;
    }
    return gens;
}

/** Exhaustive-search budget: 4^n signed Paulis times 2^n amplitudes. */
constexpr int kSearchMaxQubits = 6;

/**
 * Exhaustive small-n path: collect every signed Pauli stabilizing the
 * whole basis, require the group order to match 2^{n-m}, and reduce to
 * independent generators by symplectic elimination.
 */
std::optional<std::vector<PauliString>>
searchGenerators(const CorrectSubspace& subspace, int m)
{
    const int n = subspace.n;
    if (n > kSearchMaxQubits) return std::nullopt;

    std::vector<PauliString> stabilizing;
    for (uint64_t bits = 1; bits < (uint64_t(1) << (2 * n)); ++bits) {
        PauliString p(n);
        for (int q = 0; q < n; ++q) {
            p.setX(q, (bits >> q) & 1);
            p.setZ(q, (bits >> (n + q)) & 1);
        }
        bool plus = true, minus = true;
        PauliString neg = p;
        neg.setPhase(2);
        for (const CVector& v : subspace.basis) {
            if (plus) plus = stabilizes(p, v);
            if (minus) minus = stabilizes(neg, v);
            if (!plus && !minus) break;
        }
        if (plus) {
            stabilizing.push_back(std::move(p));
        } else if (minus) {
            stabilizing.push_back(std::move(neg));
        }
    }
    const int want = n - m;
    if (stabilizing.size() + 1 != (uint64_t(1) << want)) {
        return std::nullopt; // Not a stabilizer subspace.
    }

    // Symplectic (x|z) elimination to an independent generating set.
    F2Rref rref;
    std::vector<PauliString> gens;
    for (const PauliString& p : stabilizing) {
        uint64_t v = 0;
        for (int q = 0; q < n; ++q) {
            if (p.x(q)) v |= uint64_t(1) << q;
            if (p.z(q)) v |= uint64_t(1) << (n + q);
        }
        if (!rref.insert(v)) continue;
        gens.push_back(p);
        if (int(gens.size()) == want) break;
    }
    if (int(gens.size()) != want) return std::nullopt;
    return gens;
}

} // namespace

std::optional<std::vector<PauliString>>
stabilizerGenerators(const CorrectSubspace& subspace)
{
    const int n = subspace.n;
    const size_t t = subspace.rank();
    QA_REQUIRE(n > 0 && t > 0, "stabilizerGenerators needs a subspace");
    if ((t & (t - 1)) != 0) return std::nullopt; // Rank not a power of 2.
    int m = 0;
    while ((size_t(1) << m) < t) ++m;
    if (m == n) return std::vector<PauliString>{}; // Full space.

    if (subspace.all_basis_states) {
        const std::optional<std::vector<PauliString>> gens =
            affineGenerators(subspace);
        if (gens.has_value()) return gens;
    }
    const std::optional<std::vector<PauliString>> gens =
        conjugationGenerators(subspace);
    if (gens.has_value()) return gens;
    return searchGenerators(subspace, m);
}

} // namespace acomp
} // namespace qa
