#include "acomp/generator.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "common/error.hpp"
#include "stab/clifford.hpp"
#include "stab/tableau.hpp"

namespace qa
{
namespace acomp
{

namespace
{

/** Union-find over qubit indices for connectivity grouping. */
struct UnionFind
{
    std::vector<int> parent;

    explicit UnionFind(int n) : parent(size_t(n))
    {
        for (int i = 0; i < n; ++i) parent[size_t(i)] = i;
    }

    int find(int a)
    {
        while (parent[size_t(a)] != a) {
            parent[size_t(a)] = parent[size_t(parent[size_t(a)])];
            a = parent[size_t(a)];
        }
        return a;
    }

    void unite(int a, int b) { parent[size_t(find(a))] = find(b); }
};

/**
 * The raw circuit's analyzable Clifford prefix, walked once: the
 * tableau after it, the barrier cuts inside it, and where each qubit is
 * first touched.
 */
struct PrefixWalk
{
    /** First index past the prefix (first measure/reset/non-Clifford). */
    size_t end = 0;

    /** Barrier indices inside the prefix (candidate cuts). */
    std::vector<size_t> barrier_cuts;

    /** Per qubit: index of the first prefix gate touching it, or SIZE_MAX. */
    std::vector<size_t> first_touch;

    /** The tableau after the instructions in [0, end). */
    StabilizerTableau tableau;
};

PrefixWalk
walkPrefix(const QuantumCircuit& raw)
{
    PrefixWalk walk{0, {}, std::vector<size_t>(size_t(raw.numQubits()),
                                               SIZE_MAX),
                    StabilizerTableau(raw.numQubits())};
    const std::vector<Instruction>& instrs = raw.instructions();
    size_t i = 0;
    for (; i < instrs.size(); ++i) {
        const Instruction& instr = instrs[i];
        if (instr.type == OpType::kBarrier) {
            if (i > 0) walk.barrier_cuts.push_back(i);
            continue;
        }
        if (instr.type != OpType::kGate) break;
        const std::optional<CliffordAction> action = cliffordAction(instr);
        if (!action.has_value()) break;
        walk.tableau.applyClifford(*action, instr.qubits);
        for (int q : instr.qubits) {
            walk.first_touch[size_t(q)] =
                std::min(walk.first_touch[size_t(q)], i);
        }
    }
    walk.end = i;
    return walk;
}

/** The action of U^dag: U P U^dag = s P' gives U^dag P' U = s P. */
CliffordAction
inverseAction(const CliffordAction& action)
{
    constexpr uint8_t kMinus = CliffordAction::kMinus;
    CliffordAction inverse;
    inverse.arity = action.arity;
    for (size_t p = 0; p < (size_t(1) << (2 * action.arity)); ++p) {
        const uint8_t code = action.image[p];
        inverse.image[code & ~kMinus] = uint8_t(p | (code & kMinus));
    }
    return inverse;
}

/** Restrict a global Pauli to the listed qubits (support must fit). */
PauliString
localizePauli(const PauliString& global, const std::vector<int>& qubits)
{
    PauliString local(int(qubits.size()));
    local.setPhase(global.phase());
    for (size_t j = 0; j < qubits.size(); ++j) {
        local.setX(int(j), global.x(qubits[j]));
        local.setZ(int(j), global.z(qubits[j]));
    }
    return local;
}

/**
 * Build the tableau-derived sites for one cut position from the tableau
 * after the instructions in [0, cut).
 */
std::vector<AssertionSite>
sitesAtCut(const StabilizerTableau& tab,
           const std::vector<size_t>& first_touch, size_t cut)
{
    const int n = tab.numQubits();

    // Stabilizer row q is the image of the initial Z_q; untouched rows
    // are still exactly Z_q and carry no information worth asserting.
    UnionFind uf(n);
    std::vector<PauliString> rows;
    std::vector<int> row_qubit;
    for (int q = 0; q < n; ++q) {
        if (first_touch[size_t(q)] >= cut) continue;
        PauliString row = tab.stabilizer(q);
        for (int p = 0; p < n; ++p) {
            if ((row.x(p) || row.z(p)) && p != q) uf.unite(q, p);
        }
        rows.push_back(std::move(row));
        row_qubit.push_back(q);
    }

    // One site per multi-qubit component; singleton rows pool into one
    // classical and one superposition site per cut.
    std::vector<int> classical_qubits, superpos_qubits;
    std::vector<PauliString> classical_rows, superpos_rows;
    std::map<int, std::vector<size_t>> components;
    for (size_t r = 0; r < rows.size(); ++r) {
        components[uf.find(row_qubit[r])].push_back(r);
    }

    std::vector<AssertionSite> sites;
    for (const auto& [rep, members] : components) {
        if (members.size() == 1) {
            const size_t r = members[0];
            const int q = row_qubit[r];
            if (rows[r].x(q)) {
                superpos_qubits.push_back(q);
                superpos_rows.push_back(rows[r]);
            } else {
                classical_qubits.push_back(q);
                classical_rows.push_back(rows[r]);
            }
            continue;
        }
        AssertionSite site;
        site.position = cut;
        site.invariant = InvariantClass::kEntangled;
        for (const size_t r : members) {
            site.qubits.push_back(row_qubit[r]);
        }
        std::sort(site.qubits.begin(), site.qubits.end());
        for (const size_t r : members) {
            site.generators.push_back(localizePauli(rows[r], site.qubits));
        }
        sites.push_back(std::move(site));
    }
    if (!classical_qubits.empty()) {
        AssertionSite site;
        site.position = cut;
        site.invariant = InvariantClass::kClassical;
        site.qubits = classical_qubits;
        for (const PauliString& row : classical_rows) {
            site.generators.push_back(localizePauli(row, site.qubits));
        }
        sites.push_back(std::move(site));
    }
    if (!superpos_qubits.empty()) {
        AssertionSite site;
        site.position = cut;
        site.invariant = InvariantClass::kSuperposition;
        site.qubits = superpos_qubits;
        for (const PauliString& row : superpos_rows) {
            site.generators.push_back(localizePauli(row, site.qubits));
        }
        sites.push_back(std::move(site));
    }
    return sites;
}

/** True for a 1-qubit Clifford mapping Z -> +X and X -> +Z (H-like). */
bool
isHadamardLike(const CliffordAction& action)
{
    // 1-qubit table indices: X is 1, Z is 2 (see CliffordAction).
    return action.arity == 1 && action.image[1] == 2 &&
           action.image[2] == 1;
}

/**
 * GHZ preparation idiom: a Hadamard-like gate on a fresh qubit feeding
 * a CX fan-out tree onto fresh targets. Returns the site asserting the
 * generators the pattern promises; stray 1-qubit Pauli gates on the
 * entangled qubits are tolerated (and thereby *checked* at runtime
 * instead of absorbed); anything else touching the component vetoes
 * the idiom.
 */
std::optional<AssertionSite>
recognizeGhzIdiom(const QuantumCircuit& raw, size_t prefix_end)
{
    const std::vector<Instruction>& instrs = raw.instructions();
    std::vector<bool> touched(size_t(raw.numQubits()), false);

    // Root: the first Hadamard-like gate landing on a fresh qubit.
    int root = -1;
    size_t start = 0;
    for (size_t i = 0; i < prefix_end; ++i) {
        const Instruction& instr = instrs[i];
        if (instr.type != OpType::kGate) continue;
        if (instr.arity() == 1 && !touched[size_t(instr.qubits[0])]) {
            const std::optional<CliffordAction> action =
                cliffordAction(instr);
            if (action.has_value() && isHadamardLike(*action)) {
                root = instr.qubits[0];
                start = i;
            }
        }
        for (int q : instr.qubits) touched[size_t(q)] = true;
        if (root >= 0) break;
    }
    if (root < 0) return std::nullopt;

    std::set<int> entangled{root};
    for (size_t i = start + 1; i < prefix_end; ++i) {
        const Instruction& instr = instrs[i];
        if (instr.type != OpType::kGate) continue;
        bool overlap = false;
        for (int q : instr.qubits) overlap |= entangled.count(q) != 0;
        if (!overlap) {
            for (int q : instr.qubits) touched[size_t(q)] = true;
            continue;
        }
        if (instr.name == "cx" && instr.arity() == 2 &&
            entangled.count(instr.qubits[0]) != 0 &&
            entangled.count(instr.qubits[1]) == 0 &&
            !touched[size_t(instr.qubits[1])]) {
            entangled.insert(instr.qubits[1]);
            touched[size_t(instr.qubits[1])] = true;
            continue;
        }
        if (instr.arity() == 1 && (instr.name == "x" ||
                                   instr.name == "y" ||
                                   instr.name == "z")) {
            continue; // Candidate fault: leave it out of the invariant.
        }
        return std::nullopt;
    }
    if (entangled.size() < 2) return std::nullopt;

    AssertionSite site;
    site.position = prefix_end;
    site.invariant = InvariantClass::kEntangled;
    site.qubits.assign(entangled.begin(), entangled.end());
    const int k = int(site.qubits.size());
    int root_local = 0;
    for (int j = 0; j < k; ++j) {
        if (site.qubits[size_t(j)] == root) root_local = j;
    }
    PauliString xall(k);
    for (int j = 0; j < k; ++j) xall.setX(j, true);
    site.generators.push_back(std::move(xall));
    for (int j = 0; j < k; ++j) {
        if (j == root_local) continue;
        PauliString zz(k);
        zz.setZ(root_local, true);
        zz.setZ(j, true);
        site.generators.push_back(std::move(zz));
    }
    return site;
}

/** Anchor a site to the source statement at its insertion point. */
void
anchorSite(AssertionSite& site, const QuantumCircuit& raw,
           const std::vector<QasmPos>* positions)
{
    if (positions == nullptr || positions->empty()) return;
    const size_t idx = std::min(site.position, raw.size() - 1);
    if (idx < positions->size()) {
        site.source_line = (*positions)[idx].line;
        site.source_col = (*positions)[idx].col;
    }
}

} // namespace

std::vector<AssertionSite>
generateAssertions(const QuantumCircuit& raw,
                   const std::vector<QasmPos>* positions)
{
    std::vector<AssertionSite> sites;
    if (raw.numQubits() == 0 || raw.size() == 0) return sites;

    PrefixWalk walk = walkPrefix(raw);
    if (walk.end == 0) return sites;

    std::set<int> idiom_qubits;
    std::optional<AssertionSite> idiom = recognizeGhzIdiom(raw, walk.end);
    if (idiom.has_value()) {
        idiom_qubits.insert(idiom->qubits.begin(), idiom->qubits.end());
        sites.push_back(std::move(*idiom));
    }

    // End-of-prefix cut first (strongest invariants), then barrier cuts
    // from latest to earliest; qubits the idiom claimed stay its own.
    // The walk's tableau steps back to each cut by undoing the gates
    // after it, so the prefix is never replayed from gate 0.
    std::vector<size_t> cuts{walk.end};
    for (auto it = walk.barrier_cuts.rbegin();
         it != walk.barrier_cuts.rend(); ++it) {
        if (*it != walk.end) cuts.push_back(*it);
    }
    size_t at = walk.end;
    for (const size_t cut : cuts) {
        if (int(sites.size()) >= kMaxGeneratedSites) break;
        for (; at > cut; --at) {
            const Instruction& instr = raw.instructions()[at - 1];
            if (instr.type != OpType::kGate) continue;
            walk.tableau.applyClifford(
                inverseAction(*cliffordAction(instr)), instr.qubits);
        }
        for (AssertionSite& site :
             sitesAtCut(walk.tableau, walk.first_touch, cut)) {
            if (int(sites.size()) >= kMaxGeneratedSites) break;
            bool claimed = false;
            for (int q : site.qubits) {
                claimed |= idiom_qubits.count(q) != 0;
            }
            if (claimed) continue;
            sites.push_back(std::move(site));
        }
    }

    for (AssertionSite& site : sites) anchorSite(site, raw, positions);
    std::sort(sites.begin(), sites.end(),
              [](const AssertionSite& a, const AssertionSite& b) {
                  if (a.position != b.position) {
                      return a.position < b.position;
                  }
                  return a.qubits < b.qubits;
              });
    return sites;
}

} // namespace acomp
} // namespace qa
