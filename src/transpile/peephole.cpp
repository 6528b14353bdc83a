#include "transpile/peephole.hpp"

#include <cmath>
#include <optional>

#include "circuit/stdgates.hpp"
#include "common/error.hpp"
#include "synth/zyz.hpp"
#include "transpile/lower.hpp"

namespace qa
{

namespace
{

/** True if m is a unit-modulus scalar times the identity. */
bool
isPhaseIdentity(const CMatrix& m, double eps = 1e-9)
{
    return m.equalsUpToPhase(CMatrix::identity(m.rows()), eps);
}

/** Index of the last instruction in `out` touching any of the qubits. */
int
lastTouching(const std::vector<Instruction>& out,
             const std::vector<int>& qubits)
{
    for (int i = int(out.size()) - 1; i >= 0; --i) {
        for (int q : out[i].qubits) {
            for (int p : qubits) {
                if (p == q) return i;
            }
        }
    }
    return -1;
}

/** Rename a merged single-qubit instruction from its exact matrix. */
Instruction
makeMerged1q(int qubit, const CMatrix& product)
{
    Instruction instr;
    instr.type = OpType::kGate;
    instr.qubits = {qubit};
    instr.matrix = product;
    const ZyzAngles a = zyzDecompose(product);
    if (std::abs(a.gamma) < 1e-10) {
        instr.name = "p";
        instr.params = {a.beta + a.delta};
    } else {
        instr.name = "u3";
        instr.params = {a.gamma, a.beta, a.delta};
    }
    return instr;
}

/** One merge/cancel sweep; returns true if anything changed. */
bool
mergeCancelPass(std::vector<Instruction>& instrs)
{
    bool changed = false;
    std::vector<Instruction> out;
    out.reserve(instrs.size());

    for (Instruction& instr : instrs) {
        if (instr.type != OpType::kGate) {
            out.push_back(std::move(instr));
            continue;
        }
        const int prev = lastTouching(out, instr.qubits);
        if (prev >= 0 && out[prev].isGate() &&
            out[prev].qubits == instr.qubits) {
            const CMatrix product = instr.matrix * out[prev].matrix;
            if (isPhaseIdentity(product)) {
                out.erase(out.begin() + prev);
                changed = true;
                continue;
            }
            if (instr.arity() == 1) {
                out[prev] = makeMerged1q(instr.qubits[0], product);
                changed = true;
                continue;
            }
        }
        out.push_back(std::move(instr));
    }
    instrs = std::move(out);
    return changed;
}

/** Find the neighbouring instruction touching qubit x before/after i. */
int
neighbourOn(const std::vector<Instruction>& instrs, size_t i, int x,
            int direction)
{
    for (int j = int(i) + direction; j >= 0 && j < int(instrs.size());
         j += direction) {
        for (int q : instrs[j].qubits) {
            if (q == x) return j;
        }
    }
    return -1;
}

/**
 * Rewrite h(x) [cz(x, o1) ... cz(x, ok)] h(x) -> cx(o1, x) ... cx(ok, x).
 * Valid because CZs sharing x commute and H-conjugation turns each into a
 * CX targeting x; applies one run per call.
 */
bool
rewriteCzH(std::vector<Instruction>& instrs)
{
    for (size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& head = instrs[i];
        if (!head.isGate() || head.name != "h") continue;
        const int x = head.qubits[0];

        // Walk the next ops touching x; they must all be cz's with x.
        std::vector<int> cz_indices;
        int j = neighbourOn(instrs, i, x, +1);
        while (j >= 0 && instrs[j].isGate() && instrs[j].name == "cz" &&
               (instrs[j].qubits[0] == x || instrs[j].qubits[1] == x)) {
            cz_indices.push_back(j);
            j = neighbourOn(instrs, size_t(j), x, +1);
        }
        if (cz_indices.empty() || j < 0) continue;
        const bool tail_is_h = instrs[j].isGate() &&
                               instrs[j].name == "h" &&
                               instrs[j].qubits == std::vector<int>{x};
        if (!tail_is_h) continue;

        for (int idx : cz_indices) {
            const int other = instrs[idx].qubits[0] == x
                                  ? instrs[idx].qubits[1]
                                  : instrs[idx].qubits[0];
            instrs[idx] = makeGate(gateDef(GateId::kCx), {other, x});
        }
        // Erase the later h first.
        instrs.erase(instrs.begin() + j);
        instrs.erase(instrs.begin() + i);
        return true;
    }
    return false;
}

} // namespace

QuantumCircuit
peepholeOptimize(const QuantumCircuit& circuit)
{
    std::vector<Instruction> instrs = circuit.instructions();
    for (int pass = 0; pass < 64; ++pass) {
        bool changed = mergeCancelPass(instrs);
        while (rewriteCzH(instrs)) changed = true;
        if (!changed) break;
    }
    QuantumCircuit out(circuit.numQubits(), circuit.numClbits());
    for (Instruction& instr : instrs) out.append(std::move(instr));
    return out;
}

QuantumCircuit
optimizeAndLower(const QuantumCircuit& circuit)
{
    return peepholeOptimize(lowerToBasis(peepholeOptimize(circuit)));
}

CircuitCost
circuitCost(const QuantumCircuit& circuit)
{
    const QuantumCircuit lowered = optimizeAndLower(circuit);
    CircuitCost cost;
    cost.cx = lowered.countCx();
    cost.sg = lowered.countSingleQubit();
    cost.measure = lowered.countMeasure();
    return cost;
}

} // namespace qa
