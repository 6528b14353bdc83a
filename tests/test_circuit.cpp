/**
 * @file
 * Unit tests for the circuit IR: gate matrices, instruction validation,
 * composition, inversion, cost metrics, and QASM export.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "circuit/stdgates.hpp"
#include "common/error.hpp"
#include "linalg/states.hpp"
#include "sim/statevector.hpp"
#include "stab/tableau.hpp"
#include "synth/unitary_synth.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

using test::expectMatrixNear;

TEST(StdGatesTest, PauliAlgebra)
{
    expectMatrixNear(gates::x() * gates::x(), CMatrix::identity(2));
    expectMatrixNear(gates::y() * gates::y(), CMatrix::identity(2));
    expectMatrixNear(gates::z() * gates::z(), CMatrix::identity(2));
    // XY = iZ.
    expectMatrixNear(gates::x() * gates::y(), gates::z() * kI);
}

TEST(StdGatesTest, HadamardConjugation)
{
    expectMatrixNear(gates::h() * gates::x() * gates::h(), gates::z());
    expectMatrixNear(gates::h() * gates::z() * gates::h(), gates::x());
}

TEST(StdGatesTest, PhaseFamilies)
{
    expectMatrixNear(gates::s() * gates::s(), gates::z());
    expectMatrixNear(gates::t() * gates::t(), gates::s(), 1e-12);
    expectMatrixNear(gates::sx() * gates::sx(), gates::x(), 1e-12);
    expectMatrixNear(gates::p(M_PI), gates::z(), 1e-12);
}

TEST(StdGatesTest, U3Conventions)
{
    // u3(pi/2, 0, pi) == H; u2(0, pi) == H (the paper's GHZ prep gate).
    expectMatrixNear(gates::u3(M_PI / 2, 0, M_PI), gates::h(), 1e-12);
    expectMatrixNear(gates::u2(0, M_PI), gates::h(), 1e-12);
    // u3(theta, 0, 0) == Ry(theta).
    expectMatrixNear(gates::u3(0.7, 0, 0), gates::ry(0.7), 1e-12);
}

TEST(StdGatesTest, RotationsComposeAdditively)
{
    expectMatrixNear(gates::rz(0.3) * gates::rz(0.4), gates::rz(0.7),
                     1e-12);
    expectMatrixNear(gates::ry(0.3) * gates::ry(0.4), gates::ry(0.7),
                     1e-12);
}

TEST(StdGatesTest, ControlledConstruction)
{
    CMatrix cx = gates::controlled(gates::x());
    EXPECT_EQ(cx(0, 0), Complex(1.0));
    EXPECT_EQ(cx(1, 1), Complex(1.0));
    EXPECT_EQ(cx(2, 3), Complex(1.0));
    EXPECT_EQ(cx(3, 2), Complex(1.0));

    // Open control fires on |0>.
    CMatrix open_cx = gates::controlledOpen(gates::x(), 1, 1u);
    EXPECT_EQ(open_cx(0, 1), Complex(1.0));
    EXPECT_EQ(open_cx(1, 0), Complex(1.0));
    EXPECT_EQ(open_cx(2, 2), Complex(1.0));
}

TEST(StdGatesTest, ToffoliMatrix)
{
    CMatrix ccx = gates::ccx();
    for (size_t i = 0; i < 6; ++i) EXPECT_EQ(ccx(i, i), Complex(1.0));
    EXPECT_EQ(ccx(6, 7), Complex(1.0));
    EXPECT_EQ(ccx(7, 6), Complex(1.0));
}

TEST(CircuitTest, ValidatesQubitIndices)
{
    QuantumCircuit qc(2, 1);
    EXPECT_THROW(qc.h(2), UserError);
    EXPECT_THROW(qc.cx(0, 0), UserError); // duplicate qubit
    EXPECT_THROW(qc.measure(0, 1), UserError); // clbit out of range
    EXPECT_THROW(QuantumCircuit(0), UserError);
}

TEST(CircuitTest, UnitaryValidation)
{
    QuantumCircuit qc(2);
    CMatrix not_unitary{{1, 1}, {0, 1}};
    EXPECT_THROW(qc.unitary(not_unitary, {0}), UserError);
    CMatrix wrong_dim = CMatrix::identity(4);
    EXPECT_THROW(qc.unitary(wrong_dim, {0}), UserError);
}

TEST(CircuitTest, CountingMetrics)
{
    QuantumCircuit qc(3, 3);
    qc.h(0);
    qc.cx(0, 1);
    qc.cx(1, 2);
    qc.rz(2, 0.1);
    qc.measure(2, 2);
    EXPECT_EQ(qc.countCx(), 2);
    EXPECT_EQ(qc.countSingleQubit(), 2);
    EXPECT_EQ(qc.countMeasure(), 1);
    EXPECT_EQ(qc.countGates("h"), 1);
}

TEST(CircuitTest, DepthComputation)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.h(1); // parallel with the first h
    qc.cx(0, 1);
    qc.h(2); // parallel with everything above
    EXPECT_EQ(qc.depth(), 2);
    qc.cx(1, 2);
    EXPECT_EQ(qc.depth(), 3);
}

TEST(CircuitTest, InverseRoundTrip)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.u3(1, 0.3, 0.9, -0.2);
    qc.u2(2, 0.5, 1.1);
    qc.cx(0, 1);
    qc.crz(1, 2, 0.7);
    qc.ccx(0, 1, 2);
    qc.t(0);
    qc.sdg(1);
    qc.swap(0, 2);

    QuantumCircuit inv = qc.inverse();
    QuantumCircuit both(3);
    std::vector<int> ident{0, 1, 2};
    both.compose(qc, ident);
    both.compose(inv, ident);
    EXPECT_TRUE(circuitUnitary(both).equalsUpToPhase(
        CMatrix::identity(8), 1e-9));

    // Every gate-table row: the gate times its inverse is the identity,
    // and a renamed inverse's name and params rebuild its matrix.
    for (const GateDef& def : gateTable()) {
        SCOPED_TRACE(std::string(def.name));
        QuantumCircuit one(3);
        one.append(test::sampleGate(def));
        const QuantumCircuit one_inv = one.inverse();
        const Instruction& g = one_inv.instructions()[0];
        QuantumCircuit pair(3);
        pair.compose(one, ident);
        pair.compose(one_inv, ident);
        EXPECT_TRUE(circuitUnitary(pair).equalsUpToPhase(
            CMatrix::identity(8), 1e-9));
        if (def.inverse == InverseParams::kNone) {
            EXPECT_EQ(g.name, std::string(def.name) + "_dg");
            continue;
        }
        const GateDef* named = findGate(g.name);
        ASSERT_NE(named, nullptr);
        expectMatrixNear(makeGate(*named, g.qubits, g.params).matrix,
                         g.matrix, 1e-12);
    }
}

TEST(CircuitTest, InverseNameMapping)
{
    QuantumCircuit qc(1);
    qc.s(0);
    qc.rz(0, 0.4);
    QuantumCircuit inv = qc.inverse();
    EXPECT_EQ(inv.instructions()[0].name, "rz");
    EXPECT_DOUBLE_EQ(inv.instructions()[0].params[0], -0.4);
    EXPECT_EQ(inv.instructions()[1].name, "sdg");
}

TEST(CircuitTest, InverseRejectsMeasurement)
{
    QuantumCircuit qc(1, 1);
    qc.measure(0, 0);
    EXPECT_THROW(qc.inverse(), UserError);
}

TEST(CircuitTest, ComposeRelocatesQubits)
{
    QuantumCircuit inner(2);
    inner.h(0);
    inner.cx(0, 1);

    QuantumCircuit outer(4);
    outer.compose(inner, {2, 3});
    EXPECT_EQ(outer.instructions()[0].qubits, std::vector<int>{2});
    EXPECT_EQ(outer.instructions()[1].qubits, (std::vector<int>{2, 3}));
}

TEST(CircuitTest, ComposeRequiresClbitMapForMeasures)
{
    QuantumCircuit inner(1, 1);
    inner.measure(0, 0);
    QuantumCircuit outer(2, 2);
    EXPECT_THROW(outer.compose(inner, {1}), UserError);
    outer.compose(inner, {1}, {1});
    EXPECT_EQ(outer.instructions()[0].cbit, 1);
}

TEST(CircuitTest, MeasureAllNeedsClbits)
{
    QuantumCircuit qc(3, 2);
    EXPECT_THROW(qc.measureAll(), UserError);
    QuantumCircuit ok(3, 3);
    ok.measureAll();
    EXPECT_EQ(ok.countMeasure(), 3);
}

TEST(CircuitTest, QasmExport)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.cx(0, 1);
    qc.rz(1, 0.25);
    qc.measure(0, 0);
    const std::string qasm = qc.toQasm();
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
    EXPECT_NE(qasm.find("cx q[0],q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("rz(0.25) q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("measure q[0] -> c[0];"), std::string::npos);
}

TEST(CircuitTest, QasmRejectsOpaqueGates)
{
    Rng rng(1);
    QuantumCircuit qc(2);
    qc.unitary(randomUnitary(4, rng), {0, 1});
    EXPECT_THROW(qc.toQasm(), UserError);

    // An opaque gate is named "unitary" whatever its matrix, so nothing
    // reads a table gate's name off it: H's matrix runs as H on the
    // tableau and still exports as opaque.
    QuantumCircuit h_matrix(1);
    h_matrix.unitary(gates::h(), {0});
    EXPECT_EQ(h_matrix.instructions()[0].name, "unitary");
    EXPECT_TRUE(runClifford(h_matrix).toStatevector().equalsUpToPhase(
        CVector{1.0 / std::sqrt(2.0), 1.0 / std::sqrt(2.0)}, 1e-12));
    EXPECT_THROW(h_matrix.toQasm(), UserError);
}

TEST(CircuitTest, GateMatricesMatchNames)
{
    // Every named emission must carry the matching matrix (the
    // simulators trust the matrix field blindly).
    QuantumCircuit qc(3);
    qc.cu3(0, 1, 0.4, 0.5, 0.6);
    expectMatrixNear(qc.instructions()[0].matrix,
                     gates::controlled(gates::u3(0.4, 0.5, 0.6)), 1e-12);
    qc.ccrz(0, 1, 2, 0.9);
    expectMatrixNear(qc.instructions()[1].matrix,
                     gates::controlled(gates::rz(0.9), 2), 1e-12);
}

} // namespace
} // namespace qa
