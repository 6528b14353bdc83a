#include "core/builders.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "linalg/gram_schmidt.hpp"
#include "synth/cnot_synth.hpp"
#include "synth/factorize.hpp"
#include "synth/mcgates.hpp"
#include "synth/zyz.hpp"
#include "synth/multiplex.hpp"
#include "synth/state_prep.hpp"
#include "synth/unitary_synth.hpp"

namespace qa
{

const char*
designName(AssertionDesign design)
{
    switch (design) {
      case AssertionDesign::kSwap: return "swap";
      case AssertionDesign::kOr: return "logical-or";
      case AssertionDesign::kNdd: return "ndd";
      case AssertionDesign::kProq: return "proq";
      case AssertionDesign::kCustom: return "custom";
      case AssertionDesign::kAuto: return "auto";
    }
    return "?";
}

RankRegime
classifyRank(size_t t, int n, int* m)
{
    const size_t full = size_t(1) << n;
    QA_REQUIRE(t >= 1 && t <= full, "rank out of range");
    int floor_log = 0;
    while ((size_t(1) << (floor_log + 1)) <= t) ++floor_log;
    if (m != nullptr) *m = floor_log;
    if (t == full) return RankRegime::kFull;
    if ((t & (t - 1)) == 0) return RankRegime::kPower;
    if (t > full / 2) return RankRegime::kLarge;
    return RankRegime::kBetween;
}

std::pair<std::vector<CVector>, std::vector<CVector>>
buildSupersets(const CorrectSubspace& subspace, int m)
{
    const size_t t = subspace.rank();
    const size_t target = size_t(1) << (m + 1);
    const size_t extra = target - t;
    const size_t dim = size_t(1) << subspace.n;

    const std::vector<CVector> full = completeBasis(subspace.basis, dim);
    QA_REQUIRE(t + 2 * extra <= dim,
               "not enough orthogonal complement for disjoint supersets");

    std::vector<CVector> s1(subspace.basis);
    std::vector<CVector> s2(subspace.basis);
    for (size_t i = 0; i < extra; ++i) {
        s1.push_back(full[t + i]);
        s2.push_back(full[t + extra + i]);
    }
    return {s1, s2};
}

std::vector<CVector>
buildExtendedBasis(const CorrectSubspace& subspace)
{
    const size_t dim = size_t(1) << subspace.n;
    const size_t t = subspace.rank();
    const std::vector<CVector> full = completeBasis(subspace.basis, dim);

    auto embed = [dim](const CVector& v, bool upper_half) {
        CVector out(2 * dim);
        for (size_t i = 0; i < dim; ++i) {
            out[(upper_half ? dim : 0) + i] = v[i];
        }
        return out;
    };

    std::vector<CVector> extended;
    for (size_t i = 0; i < t; ++i) {
        extended.push_back(embed(full[i], false)); // |0>|psi_i>: correct
    }
    for (size_t i = t; i < dim; ++i) {
        extended.push_back(embed(full[i], true)); // |1>|c_j>: virtual
    }
    QA_ASSERT(extended.size() == dim, "extended basis must have rank 2^n");
    return extended;
}

namespace
{

/** Local detection of computational-basis-state vectors. */
bool
collectBasisIndices(const std::vector<CVector>& basis,
                    std::vector<uint64_t>* indices)
{
    indices->clear();
    for (const CVector& b : basis) {
        int hits = 0;
        uint64_t idx = 0;
        for (uint64_t i = 0; i < b.dim(); ++i) {
            if (std::abs(b[i]) > 1e-8) {
                ++hits;
                idx = i;
            }
        }
        if (hits != 1) return false;
        indices->push_back(idx);
    }
    return true;
}


} // namespace

BasisChange
buildBasisChange(const std::vector<CVector>& basis, int n)
{
    QA_REQUIRE(!basis.empty(), "empty basis");
    const size_t dim = size_t(1) << n;

    BasisChange bc{QuantumCircuit(n), QuantumCircuit(n), {}, {}};

    if (basis.size() == 1) {
        bc.u = prepareState(basis[0]);
        bc.uinv = bc.u.inverse();
        for (int q = 0; q < n; ++q) bc.flag_qubits.push_back(q);
        bc.correct_indices = {0};
        return bc;
    }

    // Affine computational-basis sets: X/CNOT-only circuits reading the
    // subspace's parity checks into the check qubits.
    std::vector<uint64_t> indices;
    if (collectBasisIndices(basis, &indices)) {
        std::vector<uint64_t> masks;
        for (uint64_t idx : indices) {
            masks.push_back(basisIndexToMask(idx, n));
        }
        if (auto comp = findAffineCompression(masks, n)) {
            QuantumCircuit uinv(n);
            for (int q = 0; q < n; ++q) {
                if ((comp->offset >> q) & 1) uinv.x(q);
            }
            const QuantumCircuit linear = synthesizeLinear(comp->map);
            std::vector<int> ident;
            for (int q = 0; q < n; ++q) ident.push_back(q);
            uinv.compose(linear, ident);
            bc.uinv = uinv;
            bc.u = uinv.inverse();
            bc.flag_qubits = comp->check_qubits;
            uint64_t flag_mask = 0;
            for (int f : bc.flag_qubits) {
                flag_mask |= uint64_t(1) << (n - 1 - f);
            }
            for (uint64_t i = 0; i < dim; ++i) {
                if ((i & flag_mask) == 0) bc.correct_indices.push_back(i);
            }
            return bc;
        }
    }

    // Rank-2 orthogonal-product fast path: O(n) CX.
    if (auto pair_u = basis.size() == 2
                          ? buildProductPairUnitary(basis[0], basis[1])
                          : std::nullopt) {
        bc.u = std::move(*pair_u);
        bc.uinv = bc.u.inverse();
    } else {
        // General path: synthesize an isometry whose leading columns
        // are the correct states (the remaining columns are
        // unconstrained, which is dramatically cheaper than completing
        // and synthesizing the full 2^n x 2^n unitary).
        bc.u = synthesizeIsometry(basis, n);
        bc.uinv = bc.u.inverse();
    }
    // The correct subspace maps onto the leading column indices; when t
    // is a power of two those indices are exactly the states whose
    // leading n - m qubits read zero.
    const size_t t = basis.size();
    for (uint64_t i = 0; i < t; ++i) bc.correct_indices.push_back(i);
    if ((t & (t - 1)) == 0) {
        int m = 0;
        while ((size_t(1) << m) < t) ++m;
        for (int q = 0; q < n - m; ++q) bc.flag_qubits.push_back(q);
    }
    return bc;
}

namespace
{

/** One power-rank part of the Sec. IV-C split, laid out on its wires. */
struct Part
{
    BasisChange bc;             ///< Basis change of the part's basis.
    int m = 0;                  ///< log2 of the part's rank.
    std::vector<int> qubits;    ///< Part wires (kLarge: embedding first).
    std::vector<int> ancillas;  ///< The part's ancilla slice.
    std::vector<int> clbits;    ///< The part's clbit slice.
};

/** A correct subspace split into power-rank parts of one shape. */
struct Split
{
    int parts = 1;      ///< Number of parts (two supersets for kBetween).
    int m = 0;          ///< log2 of each part's rank.
    int k = 0;          ///< Flag qubits per part: part width minus m.
    bool embed = false; ///< kLarge: an embedding ancilla leads the slot.
    std::vector<std::vector<CVector>> bases; ///< Part bases, on request.
};

/**
 * The Sec. IV-C split SWAP, OR and Proq share: rank t = 2^m is one part;
 * 2^m < t < 2^(m+1) is two rank-2^(m+1) supersets; 2^(n-1) < t < 2^n is
 * one rank-2^n part over an extra embedding qubit. Rank 2^n is refused.
 */
Split
splitRank(const CorrectSubspace& subspace, bool with_bases)
{
    const int n = subspace.n;
    int m = 0;
    Split split;
    switch (classifyRank(subspace.rank(), n, &m)) {
      case RankRegime::kFull:
        QA_FAIL("rank-2^n state sets are unassertable: every state is "
                "'correct'");
      case RankRegime::kPower:
        split = {1, m, n - m, false, {}};
        if (with_bases) split.bases = {subspace.basis};
        break;
      case RankRegime::kBetween:
        split = {2, m + 1, n - (m + 1), false, {}};
        if (with_bases) {
            auto supersets = buildSupersets(subspace, m);
            split.bases = {std::move(supersets.first),
                           std::move(supersets.second)};
        }
        break;
      case RankRegime::kLarge:
        split = {1, n, 1, true, {}};
        if (with_bases) split.bases = {buildExtendedBasis(subspace)};
        break;
    }
    return split;
}

/** Ancillas and clbits one power-rank part takes under `design`. */
AssertionPlan
partNeed(AssertionDesign design, int m, int k)
{
    switch (design) {
      case AssertionDesign::kSwap:
        return {k, k}; // one swap ancilla per flag qubit
      case AssertionDesign::kOr:
        // One flag. The k-controlled OR decomposes linearly given one
        // borrowed qubit [5][24]; allocate a helper when the flag MCX is
        // wide and no tested qubit is left over to borrow.
        return {(k >= 3 && m == 0) ? 2 : 1, 1};
      case AssertionDesign::kProq:
        return {0, k}; // measures the flag qubits themselves
      default:
        break;
    }
    QA_FAIL("no power-rank part rule for this design");
}

std::vector<int>
slice(const std::vector<int>& v, size_t begin, size_t count)
{
    QA_REQUIRE(begin + count <= v.size(),
               "not enough ancillas/clbits for the assertion");
    return std::vector<int>(v.begin() + begin, v.begin() + begin + count);
}

/** Optimized 2-CX swap, valid when `anc` is known to be |0>. */
void
emitZeroSwap(QuantumCircuit& frag, int src, int anc)
{
    frag.cx(src, anc);
    frag.cx(anc, src);
}

/** SWAP design: swap the k flag qubits out to fresh ancillas, measure. */
void
emitSwapPart(QuantumCircuit& frag, const Part& part, SwapPlacement placement)
{
    const BasisChange& bc = part.bc;
    const std::vector<int>& qubits = part.qubits;
    const std::vector<int>& anc = part.ancillas;
    const int k = int(anc.size());

    if (part.m > 0 || placement == SwapPlacement::kInvBeforePrepAfter) {
        // Fig. 3 / Fig. 8 shape: U^-1, optimized swaps of the flag
        // qubits, measure, restore with U.
        frag.compose(bc.uinv, qubits);
        for (int i = 0; i < k; ++i) {
            emitZeroSwap(frag, qubits[bc.flag_qubits[i]], anc[i]);
        }
        for (int i = 0; i < k; ++i) frag.measure(anc[i], part.clbits[i]);
        frag.compose(bc.u, qubits);
        return;
    }

    switch (placement) {
      case SwapPlacement::kInvBeforePrepBefore:
        // Fig. 6: prepare |psi0> on the ancillas, U^-1 on the tested
        // wires, full swaps; tested wires end up holding |psi0>.
        frag.compose(bc.u, anc);
        frag.compose(bc.uinv, qubits);
        for (int i = 0; i < k; ++i) frag.swap(qubits[i], anc[i]);
        break;
      case SwapPlacement::kInvAfterPrepBefore:
        frag.compose(bc.u, anc);
        for (int i = 0; i < k; ++i) frag.swap(qubits[i], anc[i]);
        frag.compose(bc.uinv, anc);
        break;
      case SwapPlacement::kInvAfterPrepAfter:
        for (int i = 0; i < k; ++i) emitZeroSwap(frag, qubits[i], anc[i]);
        frag.compose(bc.uinv, anc);
        break;
      case SwapPlacement::kInvBeforePrepAfter:
        QA_ASSERT(false, "handled above");
    }
    for (int i = 0; i < k; ++i) frag.measure(anc[i], part.clbits[i]);
    if (placement == SwapPlacement::kInvAfterPrepAfter) {
        frag.compose(bc.u, qubits);
    }
}

/** Logical-OR design: OR the k flag qubits into one flag ancilla. */
void
emitOrPart(QuantumCircuit& frag, const Part& part,
           const std::vector<int>& free_qubits)
{
    const BasisChange& bc = part.bc;
    const std::vector<int>& qubits = part.qubits;
    const int flag = part.ancillas[0];
    std::vector<int> controls;
    std::vector<bool> is_flag(qubits.size(), false);
    for (int f : bc.flag_qubits) {
        controls.push_back(qubits[f]);
        is_flag[f] = true;
    }

    frag.compose(bc.uinv, qubits);
    if (controls.size() == 1) {
        // A single flag qubit is its own error indicator.
        frag.cx(controls[0], flag);
    } else {
        // Open-controlled MCX fires when all flag qubits are |0> (no
        // error); the X then inverts to the |1> = error convention. The
        // MCX borrows the slot's free qubits, the helper ancilla, and the
        // part's non-flag qubits.
        std::vector<int> free = free_qubits;
        free.insert(free.end(), part.ancillas.begin() + 1,
                    part.ancillas.end());
        for (size_t i = 0; i < qubits.size(); ++i) {
            if (!is_flag[i]) free.push_back(qubits[i]);
        }
        mcxPattern(frag, controls, 0, flag, free);
        frag.x(flag);
    }
    frag.measure(flag, part.clbits[0]);
    frag.compose(bc.u, qubits);
}

/** Proq baseline: measure the k flag qubits directly. */
void
emitProqPart(QuantumCircuit& frag, const Part& part)
{
    // Direct mid-circuit projective measurement of the flag qubits,
    // then gates after measurement to restore the basis: exactly the
    // architectural support the paper argues real devices lack.
    const BasisChange& bc = part.bc;
    frag.compose(bc.uinv, part.qubits);
    for (size_t i = 0; i < part.clbits.size(); ++i) {
        frag.measure(part.qubits[bc.flag_qubits[i]], part.clbits[i]);
    }
    frag.compose(bc.u, part.qubits);
}

/** NDD design: one phase-kickback circuit covers every rank regime. */
QuantumCircuit
buildNdd(const CorrectSubspace& subspace, const BuildContext& ctx)
{
    // U = 2P - I has eigenvalue +1 on correct states and -1 on incorrect
    // ones; the phase-kickback circuit H . CU . H reads the eigenvalue
    // into the ancilla.
    const size_t dim = size_t(1) << subspace.n;
    CMatrix u = subspace.projector() * Complex(2.0, 0.0) -
                CMatrix::identity(dim);
    QA_ASSERT(u.isUnitary(1e-7), "2P - I must be unitary");

    QuantumCircuit frag(ctx.total_qubits, ctx.total_clbits);
    const int anc = ctx.ancillas[0];
    frag.h(anc);
    if (tensorFactorize(u).has_value()) {
        // Pauli-tensor structure (parity checks): per-factor controlled
        // gates (the circuits of Fig. 13 / Fig. 14).
        emitControlledUnitary(frag, anc, ctx.qubits, u, ctx.free_qubits);
    } else {
        // General reflection: U = V (2 Pi_t - I) V^dagger with V the
        // basis change, so CU = (I (x) V) . C-D . (I (x) V^dagger) where
        // D = diag(+1 x t, -1 x rest) -- the V layers need no control and
        // the controlled part is a plain diagonal.
        const BasisChange bc = buildBasisChange(subspace.basis, subspace.n);
        std::vector<double> phases(2 * dim, M_PI);
        for (size_t i = 0; i < dim; ++i) phases[i] = 0.0;
        for (uint64_t i : bc.correct_indices) phases[dim + i] = 0.0;
        std::vector<int> diag_qubits{anc};
        diag_qubits.insert(diag_qubits.end(), ctx.qubits.begin(),
                           ctx.qubits.end());
        frag.compose(bc.uinv, ctx.qubits);
        emitDiagonal(frag, phases, diag_qubits);
        frag.compose(bc.u, ctx.qubits);
    }
    frag.h(anc);
    frag.measure(anc, ctx.clbits[0]);
    return frag;
}

} // namespace

AssertionPlan
planAssertion(const CorrectSubspace& subspace, AssertionDesign design)
{
    const Split split = splitRank(subspace, false);
    if (design == AssertionDesign::kNdd) return {1, 1};
    const AssertionPlan part = partNeed(design, split.m, split.k);
    return {int(split.embed) + split.parts * part.num_ancillas,
            split.parts * part.num_clbits};
}

QuantumCircuit
buildAssertion(const CorrectSubspace& subspace, AssertionDesign design,
               SwapPlacement placement, const BuildContext& ctx)
{
    QA_REQUIRE(int(ctx.qubits.size()) == subspace.n,
               "qubit list does not match the state size");
    const bool ndd = design == AssertionDesign::kNdd;
    const Split split = splitRank(subspace, !ndd);
    if (ndd) return buildNdd(subspace, ctx);
    const AssertionPlan need = partNeed(design, split.m, split.k);

    // The embedding ancilla first, then each part's slices in order.
    std::vector<int> qubits = ctx.qubits;
    size_t ancilla = 0, clbit = 0;
    if (split.embed) {
        qubits.insert(qubits.begin(), slice(ctx.ancillas, 0, 1)[0]);
        ancilla = 1;
    }
    QuantumCircuit frag(ctx.total_qubits, ctx.total_clbits);
    for (const std::vector<CVector>& basis : split.bases) {
        const Part part{buildBasisChange(basis, int(qubits.size())),
                        split.m, qubits,
                        slice(ctx.ancillas, ancilla, need.num_ancillas),
                        slice(ctx.clbits, clbit, need.num_clbits)};
        QA_ASSERT(int(part.bc.flag_qubits.size()) == split.k,
                  "basis change flag count mismatch");
        ancilla += need.num_ancillas;
        clbit += need.num_clbits;
        switch (design) {
          case AssertionDesign::kSwap:
            emitSwapPart(frag, part, placement);
            break;
          case AssertionDesign::kOr:
            emitOrPart(frag, part, ctx.free_qubits);
            break;
          default:
            emitProqPart(frag, part);
            break;
        }
    }
    return frag;
}

BuildContext
slotContext(int total_qubits, int total_clbits, int program_qubits,
            const std::vector<int>& qubits, std::vector<int> ancillas,
            std::vector<int> clbits)
{
    BuildContext ctx;
    ctx.total_qubits = total_qubits;
    ctx.total_clbits = total_clbits;
    ctx.qubits = qubits;
    ctx.ancillas = std::move(ancillas);
    ctx.clbits = std::move(clbits);
    for (int q = 0; q < program_qubits; ++q) {
        if (std::find(qubits.begin(), qubits.end(), q) == qubits.end()) {
            ctx.free_qubits.push_back(q);
        }
    }
    return ctx;
}

} // namespace qa
