/**
 * @file
 * QuantumCircuit: the instruction-list IR that programs, assertion
 * builders, the transpiler, and the simulators all share.
 */
#ifndef QA_CIRCUIT_CIRCUIT_HPP
#define QA_CIRCUIT_CIRCUIT_HPP

#include <string>
#include <vector>

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

    /** @name Single-qubit gates */
    ///@{
    void id(int q);
    void x(int q);
    void y(int q);
    void z(int q);
    void h(int q);
    void s(int q);
    void sdg(int q);
    void t(int q);
    void tdg(int q);
    void sx(int q);
    void rx(int q, double theta);
    void ry(int q, double theta);
    void rz(int q, double theta);
    void p(int q, double lambda);
    void u1(int q, double lambda);
    void u2(int q, double phi, double lambda);
    void u3(int q, double theta, double phi, double lambda);
    ///@}

    /** @name Two-qubit gates (control first where applicable) */
    ///@{
    void cx(int control, int target);
    void cy(int control, int target);
    void cz(int control, int target);
    void ch(int control, int target);
    void swap(int a, int b);
    void crz(int control, int target, double theta);
    void cp(int control, int target, double lambda);
    void cu3(int control, int target, double theta, double phi,
             double lambda);
    ///@}

    /** @name Three-qubit gates */
    ///@{
    void ccx(int c0, int c1, int target);
    void ccrz(int c0, int c1, int target, double theta);
    ///@}

    /**
     * Apply an arbitrary unitary over the listed qubits (qubits[0] is the
     * most significant bit of the local index).
     */
    void unitary(const CMatrix& u, const std::vector<int>& qubits,
                 const std::string& name = "unitary");

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

    /** OpenQASM 2.0 export (named standard gates only). */
    std::string toQasm() const;

  private:
    void checkQubit(int q) const;
    void checkClbit(int c) const;
    void addStd(const std::string& name, std::vector<int> qubits,
                CMatrix matrix, std::vector<double> params = {});

    int num_qubits_;
    int num_clbits_;
    std::vector<Instruction> instrs_;
};

} // namespace qa

#endif // QA_CIRCUIT_CIRCUIT_HPP
