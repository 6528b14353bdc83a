#include "circuit/circuit.hpp"

#include <algorithm>
#include <iomanip>
#include <cmath>
#include <set>
#include <sstream>

#include "common/error.hpp"

namespace qa
{

QuantumCircuit::QuantumCircuit(int num_qubits, int num_clbits)
    : num_qubits_(num_qubits), num_clbits_(num_clbits)
{
    QA_REQUIRE(num_qubits >= 1, "circuit needs at least one qubit");
    QA_REQUIRE(num_clbits >= 0, "negative classical register size");
}

void
QuantumCircuit::checkQubit(int q) const
{
    QA_REQUIRE(q >= 0 && q < num_qubits_, "qubit index out of range");
}

void
QuantumCircuit::checkClbit(int c) const
{
    QA_REQUIRE(c >= 0 && c < num_clbits_, "classical bit index out of range");
}

void
QuantumCircuit::addStd(GateId id, std::vector<int> qubits,
                       std::vector<double> params)
{
    append(makeGate(gateDef(id), std::move(qubits), std::move(params)));
}

void
QuantumCircuit::unitary(const CMatrix& u, const std::vector<int>& qubits)
{
    QA_REQUIRE(!qubits.empty(), "unitary needs target qubits");
    QA_REQUIRE(u.rows() == u.cols(), "unitary must be square");
    QA_REQUIRE(u.rows() == (size_t(1) << qubits.size()),
               "unitary dimension does not match qubit count");
    QA_REQUIRE(u.isUnitary(1e-7), "matrix is not unitary");
    append(Instruction{OpType::kGate, "unitary", qubits, {}, u});
}

void
QuantumCircuit::measure(int q, int c)
{
    checkQubit(q);
    checkClbit(c);
    Instruction instr;
    instr.type = OpType::kMeasure;
    instr.name = "measure";
    instr.qubits = {q};
    instr.cbit = c;
    instrs_.push_back(std::move(instr));
}

void
QuantumCircuit::measureAll()
{
    QA_REQUIRE(num_clbits_ >= num_qubits_,
               "measureAll needs one classical bit per qubit");
    for (int q = 0; q < num_qubits_; ++q) measure(q, q);
}

void
QuantumCircuit::reset(int q)
{
    checkQubit(q);
    Instruction instr;
    instr.type = OpType::kReset;
    instr.name = "reset";
    instr.qubits = {q};
    instrs_.push_back(std::move(instr));
}

void
QuantumCircuit::barrier()
{
    Instruction instr;
    instr.type = OpType::kBarrier;
    instr.name = "barrier";
    for (int q = 0; q < num_qubits_; ++q) instr.qubits.push_back(q);
    instrs_.push_back(std::move(instr));
}

void
QuantumCircuit::append(Instruction instr)
{
    std::set<int> seen;
    for (int q : instr.qubits) {
        checkQubit(q);
        QA_REQUIRE(seen.insert(q).second, "duplicate qubit in instruction");
    }
    if (instr.type == OpType::kGate) {
        QA_REQUIRE(instr.matrix.rows() == (size_t(1) << instr.qubits.size()),
                   "gate matrix dimension mismatch");
    }
    if (instr.type == OpType::kMeasure) checkClbit(instr.cbit);
    instrs_.push_back(std::move(instr));
}

void
QuantumCircuit::compose(const QuantumCircuit& other,
                        const std::vector<int>& qubit_map,
                        const std::vector<int>& clbit_map)
{
    QA_REQUIRE(int(qubit_map.size()) == other.numQubits(),
               "compose qubit_map arity mismatch");
    if (!clbit_map.empty()) {
        QA_REQUIRE(int(clbit_map.size()) == other.numClbits(),
                   "compose clbit_map arity mismatch");
    }
    for (const Instruction& src : other.instrs_) {
        Instruction instr = src;
        for (int& q : instr.qubits) q = qubit_map[q];
        if (instr.type == OpType::kMeasure) {
            QA_REQUIRE(!clbit_map.empty(),
                       "compose of measuring circuit needs clbit_map");
            instr.cbit = clbit_map[instr.cbit];
        }
        if (instr.type == OpType::kBarrier) {
            // Re-span the barrier over this circuit's qubits.
            instr.qubits.clear();
            for (int q = 0; q < num_qubits_; ++q) instr.qubits.push_back(q);
        }
        append(std::move(instr));
    }
}

namespace
{

/** Inverse of a gate instruction: the dagger, renamed by its row. */
Instruction
invertGate(const Instruction& g)
{
    Instruction out = g;
    out.matrix = g.matrix.dagger();
    const GateDef* def = findGate(g.name);
    if (def == nullptr || def->inverse == InverseParams::kNone) {
        // No named inverse (sx, opaque gates): mark the daggered matrix.
        out.name = g.name + "_dg";
        return out;
    }
    out.name = gateDef(def->inverse_name).name;
    const std::vector<double>& p = g.params;
    switch (def->inverse) {
      case InverseParams::kNegate:
        for (double& x : out.params) x = -x;
        break;
      case InverseParams::kU3Swap:
        out.params = {-p[0], -p[2], -p[1]};
        break;
      case InverseParams::kU2ToU3: // u2(phi, lambda) = u3(pi/2, phi, lambda)
        out.params = {-M_PI / 2, -p[1], -p[0]};
        break;
      case InverseParams::kKeep:
      case InverseParams::kNone:
        break;
    }
    return out;
}

} // namespace

QuantumCircuit
QuantumCircuit::inverse() const
{
    QuantumCircuit inv(num_qubits_, num_clbits_);
    for (auto it = instrs_.rbegin(); it != instrs_.rend(); ++it) {
        QA_REQUIRE(it->type == OpType::kGate || it->type == OpType::kBarrier,
                   "cannot invert measurements or resets");
        if (it->type == OpType::kBarrier) {
            inv.barrier();
        } else {
            inv.append(invertGate(*it));
        }
    }
    return inv;
}

int
QuantumCircuit::countGates(const std::string& name) const
{
    int count = 0;
    for (const Instruction& instr : instrs_) {
        if (instr.isGate() && instr.name == name) ++count;
    }
    return count;
}

int QuantumCircuit::countCx() const { return countGates("cx"); }

int
QuantumCircuit::countSingleQubit() const
{
    int count = 0;
    for (const Instruction& instr : instrs_) {
        if (instr.isGate() && instr.arity() == 1 && instr.name != "id") {
            ++count;
        }
    }
    return count;
}

int
QuantumCircuit::countMeasure() const
{
    int count = 0;
    for (const Instruction& instr : instrs_) {
        if (instr.type == OpType::kMeasure) ++count;
    }
    return count;
}

int
QuantumCircuit::depth() const
{
    std::vector<int> qubit_front(num_qubits_, 0);
    std::vector<int> clbit_front(std::max(num_clbits_, 1), 0);
    int depth = 0;
    for (const Instruction& instr : instrs_) {
        if (instr.type == OpType::kBarrier) continue;
        int level = 0;
        for (int q : instr.qubits) level = std::max(level, qubit_front[q]);
        if (instr.type == OpType::kMeasure) {
            level = std::max(level, clbit_front[instr.cbit]);
        }
        ++level;
        for (int q : instr.qubits) qubit_front[q] = level;
        if (instr.type == OpType::kMeasure) clbit_front[instr.cbit] = level;
        depth = std::max(depth, level);
    }
    return depth;
}

std::string
QuantumCircuit::toQasm() const
{
    std::ostringstream oss;
    oss << "OPENQASM 2.0;\n"
        << "include \"qelib1.inc\";\n"
        << "qreg q[" << num_qubits_ << "];\n";
    if (num_clbits_ > 0) oss << "creg c[" << num_clbits_ << "];\n";

    for (const Instruction& instr : instrs_) {
        if (instr.type == OpType::kBarrier) {
            oss << "barrier q;\n";
            continue;
        }
        if (instr.type == OpType::kMeasure) {
            oss << "measure q[" << instr.qubits[0] << "] -> c["
                << instr.cbit << "];\n";
            continue;
        }
        if (instr.type == OpType::kReset) {
            oss << "reset q[" << instr.qubits[0] << "];\n";
            continue;
        }
        QA_REQUIRE(findGate(instr.name) != nullptr,
                   "toQasm: opaque gate '" + instr.name +
                       "'; lower the circuit to basis gates first");
        oss << instr.name;
        if (!instr.params.empty()) {
            oss << "(";
            for (size_t i = 0; i < instr.params.size(); ++i) {
                if (i) oss << ",";
                // Max precision so parameters survive a parse round trip.
                oss << std::setprecision(17) << instr.params[i];
            }
            oss << ")";
        }
        oss << " ";
        for (size_t i = 0; i < instr.qubits.size(); ++i) {
            if (i) oss << ",";
            oss << "q[" << instr.qubits[i] << "]";
        }
        oss << ";\n";
    }
    return oss.str();
}

} // namespace qa
