/**
 * @file
 * Tests for the OpenQASM 2.0 importer: round trips with the exporter,
 * expression evaluation, multi-register flattening, and error paths.
 */
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "algos/adder.hpp"
#include "algos/deutsch_jozsa.hpp"
#include "algos/grover.hpp"
#include "algos/oracles.hpp"
#include "algos/qft.hpp"
#include "algos/qpe.hpp"
#include "algos/states.hpp"
#include "algos/teleport.hpp"
#include "circuit/hash.hpp"
#include "circuit/qasm.hpp"
#include "circuit/stdgates.hpp"
#include "common/error.hpp"
#include "linalg/states.hpp"
#include "sim/statevector.hpp"
#include "synth/unitary_synth.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

TEST(QasmTest, RoundTripThroughExporter)
{
    QuantumCircuit qc(3, 3);
    qc.h(0);
    qc.u3(1, 0.25, -0.5, 1.75);
    qc.u2(2, 0.1, 0.2);
    qc.cx(0, 1);
    qc.cz(1, 2);
    qc.swap(0, 2);
    qc.crz(0, 2, 0.7);
    qc.cp(1, 0, -0.3);
    qc.ccx(0, 1, 2);
    qc.rz(0, M_PI / 8);
    qc.measure(2, 2);

    QuantumCircuit parsed = parseQasm(qc.toQasm());
    ASSERT_EQ(parsed.numQubits(), 3);
    ASSERT_EQ(parsed.numClbits(), 3);
    ASSERT_EQ(parsed.size(), qc.size());
    for (size_t i = 0; i < qc.size(); ++i) {
        EXPECT_EQ(parsed.instructions()[i].name,
                  qc.instructions()[i].name);
        EXPECT_EQ(parsed.instructions()[i].qubits,
                  qc.instructions()[i].qubits);
    }
    // Semantic equality of the gate prefix.
    QuantumCircuit a(3), b(3);
    std::vector<int> ident{0, 1, 2};
    for (const Instruction& instr : qc.instructions()) {
        if (instr.isGate()) a.append(instr);
    }
    for (const Instruction& instr : parsed.instructions()) {
        if (instr.isGate()) b.append(instr);
    }
    EXPECT_TRUE(circuitUnitary(a).equalsUpToPhase(circuitUnitary(b),
                                                  1e-9));

    // Every gate-table row survives the text round trip bit for bit.
    for (const GateDef& def : gateTable()) {
        SCOPED_TRACE(std::string(def.name));
        QuantumCircuit one(3);
        one.append(test::sampleGate(def));
        const QuantumCircuit back = parseQasm(one.toQasm());
        ASSERT_EQ(back.size(), 1u);
        const Instruction& want = one.instructions()[0];
        const Instruction& got = back.instructions()[0];
        EXPECT_EQ(got.name, want.name);
        EXPECT_EQ(got.qubits, want.qubits);
        EXPECT_EQ(got.params, want.params);
        ASSERT_EQ(got.matrix.rows(), want.matrix.rows());
        for (size_t r = 0; r < want.matrix.rows(); ++r) {
            for (size_t c = 0; c < want.matrix.cols(); ++c) {
                EXPECT_EQ(std::memcmp(&got.matrix(r, c), &want.matrix(r, c),
                                      sizeof(Complex)),
                          0)
                    << "entry (" << r << ", " << c << ")";
            }
        }
    }
}

TEST(QasmTest, ParameterExpressions)
{
    const char* src = R"(
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[1];
        rz(pi/2) q[0];
        rz(-pi/4) q[0];
        rz(2*pi/8 + 0.5) q[0];
        rz((1 + 1) * pi) q[0];
    )";
    QuantumCircuit qc = parseQasm(src);
    ASSERT_EQ(qc.size(), 4u);
    EXPECT_NEAR(qc.instructions()[0].params[0], M_PI / 2, 1e-12);
    EXPECT_NEAR(qc.instructions()[1].params[0], -M_PI / 4, 1e-12);
    EXPECT_NEAR(qc.instructions()[2].params[0], M_PI / 4 + 0.5, 1e-12);
    EXPECT_NEAR(qc.instructions()[3].params[0], 2 * M_PI, 1e-12);
}

TEST(QasmTest, MultipleRegistersFlatten)
{
    const char* src = R"(
        OPENQASM 2.0;
        qreg a[2];
        qreg b[1];
        creg m[2];
        creg n[1];
        x a[1];
        x b[0];
        measure b[0] -> n[0];
    )";
    QuantumCircuit qc = parseQasm(src);
    EXPECT_EQ(qc.numQubits(), 3);
    EXPECT_EQ(qc.numClbits(), 3);
    EXPECT_EQ(qc.instructions()[0].qubits[0], 1); // a[1]
    EXPECT_EQ(qc.instructions()[1].qubits[0], 2); // b[0] after a[0..1]
    EXPECT_EQ(qc.instructions()[2].cbit, 2);      // n[0] after m[0..1]
}

TEST(QasmTest, CommentsAndWhitespace)
{
    const char* src =
        "OPENQASM 2.0; // header\n"
        "qreg q[2]; // two qubits\n"
        "h q[0];\n"
        "// a full-line comment\n"
        "cx q[0], q[1];\n";
    QuantumCircuit qc = parseQasm(src);
    EXPECT_EQ(qc.size(), 2u);
    // Semantics: a Bell pair.
    CVector bell(4);
    bell[0] = bell[3] = 1.0 / std::sqrt(2.0);
    EXPECT_TRUE(finalState(qc).amplitudes().equalsUpToPhase(bell, 1e-10));
}

TEST(QasmTest, GateAliases)
{
    const char* src = R"(
        OPENQASM 2.0;
        qreg q[2];
        u1(0.5) q[0];
        u(0.1, 0.2, 0.3) q[0];
        cu1(0.4) q[0], q[1];
        CX q[0], q[1];
        U(0.1, 0.2, 0.3) q[1];
    )";
    QuantumCircuit qc = parseQasm(src);
    EXPECT_EQ(qc.instructions()[0].name, "p");
    EXPECT_EQ(qc.instructions()[1].name, "u3");
    EXPECT_EQ(qc.instructions()[2].name, "cp");
    EXPECT_EQ(qc.instructions()[3].name, "cx");
    EXPECT_EQ(qc.instructions()[4].name, "u3");
    // Stored under the canonical name, so U and u3 hash (and key) alike.
    EXPECT_TRUE(circuitHash(parseQasm("qreg q[1]; U(0.1,0.2,0.3) q[0];")) ==
                circuitHash(parseQasm("qreg q[1]; u3(0.1,0.2,0.3) q[0];")));
}

TEST(QasmTest, ErrorPaths)
{
    EXPECT_THROW(parseQasm("OPENQASM 2.0; creg c[1];"), UserError);
    EXPECT_THROW(parseQasm("qreg q[2]; frobnicate q[0];"), UserError);
    EXPECT_THROW(parseQasm("qreg q[2]; h q[5];"), UserError);
    EXPECT_THROW(parseQasm("qreg q[2]; rx(blah) q[0];"), UserError);
    EXPECT_THROW(parseQasm("qreg q[2]; cx q[0];"), UserError);
    EXPECT_THROW(parseQasm("qreg q[2]; h q[0]"), UserError); // no ';'
    EXPECT_THROW(parseQasm("qreg q[2]; measure q[0];"), UserError);
    EXPECT_THROW(parseQasm("qreg q[2]; qreg q[2]; h q[0];"), UserError);
}

/** Parse and return the diagnostic the parser raises (empty = none). */
std::string
parseDiagnostic(const std::string& src)
{
    try {
        parseQasm(src);
    } catch (const UserError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kQasmSyntax) << e.what();
        return e.what();
    }
    return "";
}

TEST(QasmTest, OutOfRangeIndexNamesLineAndColumn)
{
    const std::string msg =
        parseDiagnostic("OPENQASM 2.0;\nqreg q[2];\nh q[5];\n");
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("index 5 out of range"), std::string::npos) << msg;
    EXPECT_NE(msg.find("q[2]"), std::string::npos) << msg;
}

TEST(QasmTest, MalformedIndexIsRejectedNotParsedAsPrefix)
{
    // std::stoi would silently accept "1x" as 1; the checked parser
    // must reject the whole token with a position.
    const std::string msg = parseDiagnostic("qreg q[2];\nh q[1x];\n");
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'1x'"), std::string::npos) << msg;
}

TEST(QasmTest, OverflowingRegisterSizeIsDiagnosed)
{
    // Would throw raw std::out_of_range from std::stoi before.
    const std::string msg =
        parseDiagnostic("qreg q[99999999999999999999];\nh q[0];\n");
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
}

TEST(QasmTest, MalformedRegisterSizeIsDiagnosed)
{
    const std::string msg = parseDiagnostic("qreg q[two];\nh q[0];\n");
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("register size"), std::string::npos) << msg;
}

TEST(QasmTest, DuplicateQubitOperandsAreRejected)
{
    const std::string msg = parseDiagnostic("qreg q[2];\ncx q[0], q[0];\n");
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("same qubit twice"), std::string::npos) << msg;
    EXPECT_THROW(parseQasm("qreg q[3]; ccx q[0], q[1], q[1];"), UserError);
    EXPECT_THROW(parseQasm("qreg q[2]; swap q[1], q[1];"), UserError);
}

TEST(QasmTest, MalformedGateArgumentsAreDiagnosed)
{
    const std::string msg =
        parseDiagnostic("qreg q[1];\n\nrx(0.3 + ) q[0];\n");
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_THROW(parseQasm("qreg q[1]; rx(0.1 q[0];"), UserError);
    EXPECT_THROW(parseQasm("qreg q[1]; rx(1/0) q[0];"), UserError);
    EXPECT_THROW(parseQasm("qreg q[1]; rx(0.1, 0.2) q[0];"), UserError);
    EXPECT_THROW(parseQasm("qreg q[1]; u3(0.1) q[0];"), UserError);
    // A fixed gate takes no parameter list.
    EXPECT_NE(parseDiagnostic("qreg q[1];\nx(0.3) q[0];\n")
                  .find("x expects 0 parameters, got 1"),
              std::string::npos);
    EXPECT_NE(parseDiagnostic("qreg q[2];\ncx(1,2) q[0],q[1];\n")
                  .find("cx expects 0 parameters, got 2"),
              std::string::npos);
}

TEST(QasmTest, ColumnPointsAtStatementStart)
{
    // Two statements on one line: the second one's column is past the
    // first, so the diagnostic distinguishes them.
    const std::string msg =
        parseDiagnostic("qreg q[2]; h q[0]; h q[7];\n");
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("line 1, col 20"), std::string::npos) << msg;
}

/**
 * Require parseQasm(c.toQasm()) to reproduce `c` structurally:
 * same registers, same instruction sequence, bit-exact parameters
 * (the exporter prints 17 significant digits precisely so doubles
 * survive the text round trip).
 */
void
expectQasmRoundTrip(const QuantumCircuit& c, const std::string& label)
{
    SCOPED_TRACE(label);
    const QuantumCircuit parsed = parseQasm(c.toQasm());
    ASSERT_EQ(parsed.numQubits(), c.numQubits());
    ASSERT_EQ(parsed.numClbits(), c.numClbits());
    ASSERT_EQ(parsed.size(), c.size());
    for (size_t i = 0; i < c.size(); ++i) {
        const Instruction& want = c.instructions()[i];
        const Instruction& got = parsed.instructions()[i];
        SCOPED_TRACE("instruction " + std::to_string(i) + ": " +
                     want.name);
        ASSERT_EQ(int(got.type), int(want.type));
        EXPECT_EQ(got.name, want.name);
        EXPECT_EQ(got.qubits, want.qubits);
        EXPECT_EQ(got.cbit, want.cbit);
        ASSERT_EQ(got.params.size(), want.params.size());
        for (size_t p = 0; p < want.params.size(); ++p) {
            EXPECT_DOUBLE_EQ(got.params[p], want.params[p]);
        }
    }
}

TEST(QasmTest, EveryAlgoCircuitRoundTrips)
{
    // Property: the exporter/importer pair is lossless for every
    // program the algos library can emit — including the ccrz the
    // controlled adders use, which a prior exporter whitelist missed.
    using namespace algos;
    expectQasmRoundTrip(bellPrep(BellKind::kPhiPlus), "bell phi+");
    expectQasmRoundTrip(bellPrep(BellKind::kPhiMinus), "bell phi-");
    expectQasmRoundTrip(bellPrep(BellKind::kPsiPlus), "bell psi+");
    expectQasmRoundTrip(bellPrep(BellKind::kPsiMinus), "bell psi-");
    expectQasmRoundTrip(ghzPrep(4), "ghz 4");
    expectQasmRoundTrip(ghzPrep(3, 1), "ghz 3 (buggy)");
    expectQasmRoundTrip(wPrep(4), "w 4");
    expectQasmRoundTrip(linearClusterPrep(4), "cluster 4");
    expectQasmRoundTrip(qft(4), "qft 4");
    expectQasmRoundTrip(qft(3, false), "qft 3, no swaps");
    expectQasmRoundTrip(iqft(4), "iqft 4");
    expectQasmRoundTrip(adderProgram(3, 2, 3, 0, false), "adder");
    expectQasmRoundTrip(adderProgram(3, 2, 3, 1, true), "c-adder");
    expectQasmRoundTrip(adderProgram(3, 2, 3, 2, true),
                        "cc-adder (ccrz)");
    expectQasmRoundTrip(adderProgram(3, 2, 3, 2, true, true),
                        "cc-adder (buggy)");
    expectQasmRoundTrip(djFunctionEval(3, DjOracle::kConstantZero),
                        "dj constant-0");
    expectQasmRoundTrip(djFunctionEval(3, DjOracle::kConstantOne),
                        "dj constant-1");
    expectQasmRoundTrip(djFunctionEval(3, DjOracle::kBalancedMask, 5),
                        "dj balanced");
    expectQasmRoundTrip(djFunctionEval(3, DjOracle::kBuggyAnd),
                        "dj buggy-and");
    expectQasmRoundTrip(groverProgram(3, 5, groverOptimalIterations(3)),
                        "grover 3");
    expectQasmRoundTrip(
        groverProgram(3, 5, 1, GroverBug::kMissingDiffusionPhase),
        "grover 3 (buggy)");
    expectQasmRoundTrip(bernsteinVazirani(4, 0b1011), "bv 4");
    expectQasmRoundTrip(bernsteinVazirani(4, 0b1011, 1), "bv 4 (buggy)");
    for (int b1 = 0; b1 < 2; ++b1) {
        for (int b0 = 0; b0 < 2; ++b0) {
            expectQasmRoundTrip(superdenseProgram(b1, b0),
                                "superdense " + std::to_string(b1) +
                                    std::to_string(b0));
        }
    }
    CVector payload(2);
    payload[0] = 0.6;
    payload[1] = Complex(0.0, 0.8);
    expectQasmRoundTrip(teleportProgram(payload), "teleport");
    expectQasmRoundTrip(
        teleportProgram(payload, TeleportBug::kWrongBellPair),
        "teleport (buggy)");
    expectQasmRoundTrip(qpeRyProgram(3, 0.7), "qpe-ry 3");
    expectQasmRoundTrip(qpeRyProgram(3, 0.7, true), "qpe-ry 3 (buggy)");
}

TEST(QasmTest, ParsedProgramIsAssertable)
{
    // End-to-end: import a GHZ program written in QASM, assert it.
    const char* src = R"(
        OPENQASM 2.0;
        qreg q[3];
        u2(0, pi) q[0];
        cx q[0], q[1];
        cx q[1], q[2];
    )";
    QuantumCircuit program = parseQasm(src);
    CVector ghz(8);
    ghz[0] = ghz[7] = 1.0 / std::sqrt(2.0);
    EXPECT_TRUE(finalState(program).amplitudes().equalsUpToPhase(ghz,
                                                                 1e-10));
}

} // namespace
} // namespace qa
