/**
 * @file
 * QuantumCircuit: the instruction-list IR that programs, assertion
 * builders, the transpiler, and the simulators all share.
 */
#ifndef QA_CIRCUIT_CIRCUIT_HPP
#define QA_CIRCUIT_CIRCUIT_HPP

#include <string>
#include <vector>

#include "circuit/stdgates.hpp"
#include "circuit/instruction.hpp"
#include "linalg/matrix.hpp"

namespace qa
{

/**
 * Ordered list of instructions on a fixed-size qubit/classical register.
 *
 * Qubit 0 is the most significant bit of basis indices (paper's ket
 * convention |q0 q1 ...>). All mutating helpers validate indices eagerly.
 */
class QuantumCircuit
{
  public:
    /** Circuit over `num_qubits` qubits and `num_clbits` classical bits. */
    explicit QuantumCircuit(int num_qubits, int num_clbits = 0);

    int numQubits() const { return num_qubits_; }
    int numClbits() const { return num_clbits_; }
    const std::vector<Instruction>& instructions() const { return instrs_; }
    size_t size() const { return instrs_.size(); }

    /**
     * @name Standard gates
     * Each appends through its gate-table row (circuit/stdgates.hpp),
     * which pairs the name with its matrix; controls come first.
     */
    ///@{
    void id(int q) { addStd(GateId::kId, {q}); }
    void x(int q) { addStd(GateId::kX, {q}); }
    void y(int q) { addStd(GateId::kY, {q}); }
    void z(int q) { addStd(GateId::kZ, {q}); }
    void h(int q) { addStd(GateId::kH, {q}); }
    void s(int q) { addStd(GateId::kS, {q}); }
    void sdg(int q) { addStd(GateId::kSdg, {q}); }
    void t(int q) { addStd(GateId::kT, {q}); }
    void tdg(int q) { addStd(GateId::kTdg, {q}); }
    void sx(int q) { addStd(GateId::kSx, {q}); }
    void rx(int q, double theta) { addStd(GateId::kRx, {q}, {theta}); }
    void ry(int q, double theta) { addStd(GateId::kRy, {q}, {theta}); }
    void rz(int q, double theta) { addStd(GateId::kRz, {q}, {theta}); }
    void p(int q, double lambda) { addStd(GateId::kP, {q}, {lambda}); }
    void
    u2(int q, double phi, double lambda)
    {
        addStd(GateId::kU2, {q}, {phi, lambda});
    }
    void
    u3(int q, double theta, double phi, double lambda)
    {
        addStd(GateId::kU3, {q}, {theta, phi, lambda});
    }
    void cx(int c, int t) { addStd(GateId::kCx, {c, t}); }
    void cy(int c, int t) { addStd(GateId::kCy, {c, t}); }
    void cz(int c, int t) { addStd(GateId::kCz, {c, t}); }
    void ch(int c, int t) { addStd(GateId::kCh, {c, t}); }
    void swap(int a, int b) { addStd(GateId::kSwap, {a, b}); }
    void crz(int c, int t, double a) { addStd(GateId::kCrz, {c, t}, {a}); }
    void cp(int c, int t, double a) { addStd(GateId::kCp, {c, t}, {a}); }
    void
    cu3(int c, int t, double theta, double phi, double lambda)
    {
        addStd(GateId::kCu3, {c, t}, {theta, phi, lambda});
    }
    void ccx(int c0, int c1, int t) { addStd(GateId::kCcx, {c0, c1, t}); }
    void
    ccrz(int c0, int c1, int t, double theta)
    {
        addStd(GateId::kCcrz, {c0, c1, t}, {theta});
    }
    ///@}

    /**
     * Apply an arbitrary unitary over the listed qubits (qubits[0] is the
     * most significant bit of the local index). The instruction is named
     * "unitary", so every consumer reads it by its matrix.
     */
    void unitary(const CMatrix& u, const std::vector<int>& qubits);

    /** Measure qubit q into classical bit c. */
    void measure(int q, int c);

    /** Measure qubit q into classical bit q (requires enough clbits). */
    void measureAll();

    /** Reset qubit q to |0>. */
    void reset(int q);

    /** Insert an optimization barrier across all qubits. */
    void barrier();

    /** Append a pre-built instruction (validated). */
    void append(Instruction instr);

    /**
     * Append all instructions of `other`, relocating its qubit i to
     * qubit_map[i] and classical bit j to clbit_map[j].
     */
    void compose(const QuantumCircuit& other,
                 const std::vector<int>& qubit_map,
                 const std::vector<int>& clbit_map = {});

    /**
     * Unitary inverse: reversed instruction order with daggered gates.
     * Rejects circuits containing measurements or resets.
     */
    QuantumCircuit inverse() const;

    /** @name Cost metrics (as-written, i.e. before basis lowering) */
    ///@{
    /** Count instructions with the exact gate name. */
    int countGates(const std::string& name) const;
    /** Count CX gates specifically. */
    int countCx() const;
    /** Count single-qubit gates (id/barrier excluded). */
    int countSingleQubit() const;
    /** Count measurement instructions. */
    int countMeasure() const;
    /** Circuit depth over qubits and classical bits. */
    int depth() const;
    ///@}

    /** OpenQASM 2.0 export (gate-table gates only). */
    std::string toQasm() const;

  private:
    void checkQubit(int q) const;
    void checkClbit(int c) const;
    void addStd(GateId id, std::vector<int> qubits,
                std::vector<double> params = {});

    int num_qubits_;
    int num_clbits_;
    std::vector<Instruction> instrs_;
};

} // namespace qa

#endif // QA_CIRCUIT_CIRCUIT_HPP
