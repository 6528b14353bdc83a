#include "circuit/circuit.hpp"

#include <algorithm>
#include <iomanip>
#include <cmath>
#include <set>
#include <sstream>

#include "circuit/stdgates.hpp"
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
QuantumCircuit::addStd(const std::string& name, std::vector<int> qubits,
                       CMatrix matrix, std::vector<double> params)
{
    Instruction instr;
    instr.type = OpType::kGate;
    instr.name = name;
    instr.qubits = std::move(qubits);
    instr.params = std::move(params);
    instr.matrix = std::move(matrix);
    append(std::move(instr));
}

void QuantumCircuit::id(int q) { addStd("id", {q}, gates::i()); }
void QuantumCircuit::x(int q) { addStd("x", {q}, gates::x()); }
void QuantumCircuit::y(int q) { addStd("y", {q}, gates::y()); }
void QuantumCircuit::z(int q) { addStd("z", {q}, gates::z()); }
void QuantumCircuit::h(int q) { addStd("h", {q}, gates::h()); }
void QuantumCircuit::s(int q) { addStd("s", {q}, gates::s()); }
void QuantumCircuit::sdg(int q) { addStd("sdg", {q}, gates::sdg()); }
void QuantumCircuit::t(int q) { addStd("t", {q}, gates::t()); }
void QuantumCircuit::tdg(int q) { addStd("tdg", {q}, gates::tdg()); }
void QuantumCircuit::sx(int q) { addStd("sx", {q}, gates::sx()); }

void
QuantumCircuit::rx(int q, double theta)
{
    addStd("rx", {q}, gates::rx(theta), {theta});
}

void
QuantumCircuit::ry(int q, double theta)
{
    addStd("ry", {q}, gates::ry(theta), {theta});
}

void
QuantumCircuit::rz(int q, double theta)
{
    addStd("rz", {q}, gates::rz(theta), {theta});
}

void
QuantumCircuit::p(int q, double lambda)
{
    addStd("p", {q}, gates::p(lambda), {lambda});
}

void QuantumCircuit::u1(int q, double lambda) { p(q, lambda); }

void
QuantumCircuit::u2(int q, double phi, double lambda)
{
    addStd("u2", {q}, gates::u2(phi, lambda), {phi, lambda});
}

void
QuantumCircuit::u3(int q, double theta, double phi, double lambda)
{
    addStd("u3", {q}, gates::u3(theta, phi, lambda), {theta, phi, lambda});
}

void
QuantumCircuit::cx(int control, int target)
{
    addStd("cx", {control, target}, gates::cx());
}

void
QuantumCircuit::cy(int control, int target)
{
    addStd("cy", {control, target}, gates::cy());
}

void
QuantumCircuit::cz(int control, int target)
{
    addStd("cz", {control, target}, gates::cz());
}

void
QuantumCircuit::ch(int control, int target)
{
    addStd("ch", {control, target}, gates::ch());
}

void
QuantumCircuit::swap(int a, int b)
{
    addStd("swap", {a, b}, gates::swap());
}

void
QuantumCircuit::crz(int control, int target, double theta)
{
    addStd("crz", {control, target}, gates::crz(theta), {theta});
}

void
QuantumCircuit::cp(int control, int target, double lambda)
{
    addStd("cp", {control, target}, gates::cp(lambda), {lambda});
}

void
QuantumCircuit::cu3(int control, int target, double theta, double phi,
                    double lambda)
{
    addStd("cu3", {control, target}, gates::cu3(theta, phi, lambda),
           {theta, phi, lambda});
}

void
QuantumCircuit::ccx(int c0, int c1, int target)
{
    addStd("ccx", {c0, c1, target}, gates::ccx());
}

void
QuantumCircuit::ccrz(int c0, int c1, int target, double theta)
{
    addStd("ccrz", {c0, c1, target},
           gates::controlled(gates::rz(theta), 2), {theta});
}

void
QuantumCircuit::unitary(const CMatrix& u, const std::vector<int>& qubits,
                        const std::string& name)
{
    QA_REQUIRE(!qubits.empty(), "unitary needs target qubits");
    QA_REQUIRE(u.rows() == u.cols(), "unitary must be square");
    QA_REQUIRE(u.rows() == (size_t(1) << qubits.size()),
               "unitary dimension does not match qubit count");
    QA_REQUIRE(u.isUnitary(1e-7), "matrix is not unitary");
    addStd(name, qubits, u);
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

/** Inverse of a named gate instruction. */
Instruction
invertGate(const Instruction& g)
{
    Instruction out = g;
    out.matrix = g.matrix.dagger();

    static const std::set<std::string> self_inverse = {
        "id", "x", "y", "z", "h", "cx", "cy", "cz", "ch", "swap", "ccx"};
    if (self_inverse.count(g.name)) return out;

    auto negate_params = [&out]() {
        for (double& x : out.params) x = -x;
    };

    if (g.name == "s") { out.name = "sdg"; return out; }
    if (g.name == "sdg") { out.name = "s"; return out; }
    if (g.name == "t") { out.name = "tdg"; return out; }
    if (g.name == "tdg") { out.name = "t"; return out; }
    if (g.name == "rx" || g.name == "ry" || g.name == "rz" ||
        g.name == "p" || g.name == "crz" || g.name == "cp" ||
        g.name == "ccrz") {
        negate_params();
        return out;
    }
    if (g.name == "u3" || g.name == "cu3") {
        // u3(theta, phi, lambda)^-1 = u3(-theta, -lambda, -phi).
        out.params = {-g.params[0], -g.params[2], -g.params[1]};
        return out;
    }
    if (g.name == "u2") {
        // u2(phi, lambda) = u3(pi/2, phi, lambda).
        out.name = "u3";
        out.params = {-M_PI / 2, -g.params[1], -g.params[0]};
        return out;
    }
    // Unknown/opaque gate: keep the daggered matrix with a marker name.
    out.name = g.name + "_dg";
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
    // "ccrz" is a qassert extension (the adder programs emit it); our
    // importer accepts it back, other toolchains need a gate definition.
    static const std::set<std::string> known = {
        "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx",
        "rx", "ry", "rz", "p", "u2", "u3", "cx", "cy", "cz", "ch",
        "swap", "crz", "cp", "cu3", "ccx", "ccrz"};

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
        QA_REQUIRE(known.count(instr.name),
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
