#include "algos/qpe.hpp"

#include <cmath>

#include "algos/qft.hpp"
#include "common/error.hpp"
#include "sim/statevector.hpp"

namespace qa
{
namespace algos
{

QpeProgram::QpeProgram(int counting, double lambda, QpeBug bug)
    : counting_(counting), lambda_(lambda), bug_(bug)
{
    QA_REQUIRE(counting >= 1, "QPE needs at least one counting qubit");
}

QuantumCircuit
QpeProgram::stage(int s) const
{
    QA_REQUIRE(s >= 0 && s < numStages(), "stage index out of range");
    QuantumCircuit qc(numQubits());
    const int ar = counting_; // eigenstate qubit

    if (s == 0) {
        // Superposition precondition on the counting register and the
        // eigenstate superposition (|0> + |1>)/sqrt2 on ar.
        for (int q = 0; q < counting_; ++q) qc.h(q);
        qc.h(ar);
        return qc;
    }
    if (s <= counting_) {
        // Stage s applies the paper's loop iteration j = s - 1: angle
        // 2^j * lambda. Counting qubit q must accumulate phase
        // 2 pi x / 2^{q+1} for the MSB-first inverse QFT to decode x,
        // so the 2^j weight lands on qubit counting - 1 - j (the
        // paper's qr[j] on Qiskit's LSB-first register).
        const int j = s - 1;
        const int q = counting_ - 1 - j;
        const double angle = std::ldexp(lambda_, j);
        switch (bug_) {
          case QpeBug::kNone:
            qc.cu3(q, ar, 0, 0, angle);
            break;
          case QpeBug::kFixedAngle:
            qc.cu3(q, ar, 0, 0, lambda_); // dropped loop index
            break;
          case QpeBug::kMissingControl:
            qc.u3(ar, 0, 0, angle); // "c" missing: uncontrolled
            break;
          case QpeBug::kWrongParamOrder:
            // Sec. IX-B: the angle lands in u3's phi slot with a wrong
            // base angle.
            qc.cu3(q, ar, 0, std::ldexp(M_PI / 2, j), 0);
            break;
        }
        return qc;
    }
    std::vector<int> qubits;
    for (int q = 0; q < counting_; ++q) qubits.push_back(q);
    appendIqft(qc, qubits);
    return qc;
}

QuantumCircuit
QpeProgram::full() const
{
    QuantumCircuit qc(numQubits());
    std::vector<int> ident;
    for (int q = 0; q < numQubits(); ++q) ident.push_back(q);
    for (int s = 0; s < numStages(); ++s) qc.compose(stage(s), ident);
    return qc;
}

CVector
QpeProgram::expectedStateAtSlot(int slot) const
{
    QA_REQUIRE(slot >= 1 && slot <= numSlots(), "slot out of range");
    QpeProgram clean(counting_, lambda_, QpeBug::kNone);
    QuantumCircuit qc(numQubits());
    std::vector<int> ident;
    for (int q = 0; q < numQubits(); ++q) ident.push_back(q);
    for (int s = 0; s < slot; ++s) qc.compose(clean.stage(s), ident);
    return finalState(qc).amplitudes();
}

QuantumCircuit
qpeRyProgram(int counting, double theta, bool bug)
{
    QuantumCircuit qc(counting + 1);
    const int ar = counting;
    for (int q = 0; q < counting; ++q) qc.h(q);
    // Prepare the Y +1 eigenstate (|0> + i|1>)/sqrt2 = S H |0>.
    qc.h(ar);
    qc.s(ar);
    for (int j = 0; j < counting; ++j) {
        const int q = counting - 1 - j;
        if (bug) {
            qc.cu3(q, ar, 0, std::ldexp(M_PI / 2, j), 0);
        } else {
            qc.cu3(q, ar, std::ldexp(theta, j), 0, 0);
        }
    }
    std::vector<int> qubits;
    for (int q = 0; q < counting; ++q) qubits.push_back(q);
    appendIqft(qc, qubits);
    return qc;
}

CVector
qpeRyEigenstate()
{
    return CVector{Complex(1.0 / std::sqrt(2.0), 0.0),
                   Complex(0.0, 1.0 / std::sqrt(2.0))};
}

} // namespace algos
} // namespace qa
