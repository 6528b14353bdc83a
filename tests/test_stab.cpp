/**
 * @file
 * Tests for the stabilizer substrate: Pauli algebra, the tableau
 * simulator (cross-validated against the dense statevector backend),
 * and stabilizer-state recognition in the synthesis pipeline.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "algos/states.hpp"
#include "common/error.hpp"
#include "linalg/states.hpp"
#include "sim/statevector.hpp"
#include "stab/observables.hpp"
#include "stab/tableau.hpp"
#include "synth/stabilizer_prep.hpp"
#include "synth/state_prep.hpp"
#include "core/runner.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

TEST(PauliTest, LabelsRoundTrip)
{
    for (const char* label : {"+XYZ", "-II", "+iZX", "-iYY"}) {
        EXPECT_EQ(PauliString::fromLabel(label).toString(), label);
    }
    EXPECT_THROW(PauliString::fromLabel("+AB"), UserError);
}

TEST(PauliTest, MultiplicationMatchesMatrices)
{
    const std::vector<std::string> labels = {"+X", "+Y", "+Z", "+I",
                                             "-X", "+iY"};
    for (const auto& a : labels) {
        for (const auto& b : labels) {
            const PauliString pa = PauliString::fromLabel(a);
            const PauliString pb = PauliString::fromLabel(b);
            test::expectMatrixNear((pa * pb).toMatrix(),
                                   pa.toMatrix() * pb.toMatrix(), 1e-12);
        }
    }
    // Multi-qubit random products.
    Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        PauliString a(3), b(3);
        for (int q = 0; q < 3; ++q) {
            a.setX(q, rng.bernoulli(0.5));
            a.setZ(q, rng.bernoulli(0.5));
            b.setX(q, rng.bernoulli(0.5));
            b.setZ(q, rng.bernoulli(0.5));
        }
        a.setPhase(int(rng.index(4)));
        b.setPhase(int(rng.index(4)));
        test::expectMatrixNear((a * b).toMatrix(),
                               a.toMatrix() * b.toMatrix(), 1e-12);
    }
}

TEST(PauliTest, Commutation)
{
    const PauliString x = PauliString::fromLabel("+X");
    const PauliString z = PauliString::fromLabel("+Z");
    EXPECT_FALSE(x.commutesWith(z));
    EXPECT_TRUE(PauliString::fromLabel("+XX").commutesWith(
        PauliString::fromLabel("+ZZ")));
    EXPECT_TRUE(x.commutesWith(x));
}

TEST(TableauTest, GroundStateStabilizers)
{
    StabilizerTableau tableau(2);
    EXPECT_EQ(tableau.stabilizer(0).toString(), "+ZI");
    EXPECT_EQ(tableau.stabilizer(1).toString(), "+IZ");
    EXPECT_TRUE(tableau.isDeterministic(0));
}

TEST(TableauTest, BellStateStabilizers)
{
    StabilizerTableau tableau(2);
    tableau.applyH(0);
    tableau.applyCx(0, 1);
    // Stabilizer group {XX, ZZ} up to generator choice.
    const PauliString s0 = tableau.stabilizer(0);
    const PauliString s1 = tableau.stabilizer(1);
    const PauliString xx = PauliString::fromLabel("+XX");
    const PauliString zz = PauliString::fromLabel("+ZZ");
    // Both must stabilize the Bell state: verify densely.
    const CVector bell = tableau.toStatevector();
    for (const PauliString& s : {s0, s1, xx, zz}) {
        const CVector image = s.toMatrix() * bell;
        EXPECT_TRUE(image.approxEquals(bell, 1e-9)) << s.toString();
    }
}

TEST(TableauTest, CliffordAgreesWithStatevector)
{
    // Random Clifford circuits: tableau state == dense state.
    Rng rng(11);
    for (int trial = 0; trial < 10; ++trial) {
        const int n = 2 + int(rng.index(3));
        QuantumCircuit qc(n);
        for (int g = 0; g < 20; ++g) {
            const int kind = int(rng.index(6));
            const int a = int(rng.index(n));
            int b = int(rng.index(n));
            if (b == a) b = (b + 1) % n;
            switch (kind) {
              case 0: qc.h(a); break;
              case 1: qc.s(a); break;
              case 2: qc.x(a); break;
              case 3: qc.cx(a, b); break;
              case 4: qc.cz(a, b); break;
              case 5: qc.sdg(a); break;
            }
        }
        ASSERT_TRUE(isCliffordCircuit(qc));
        const CVector via_tableau = runClifford(qc).toStatevector();
        const CVector via_dense = finalState(qc).amplitudes();
        EXPECT_TRUE(via_tableau.equalsUpToPhase(via_dense, 1e-7))
            << "trial " << trial;
    }
}

TEST(TableauTest, MeasurementStatistics)
{
    // Bell pair: first measurement random, second perfectly correlated.
    Rng rng(17);
    int ones = 0;
    for (int shot = 0; shot < 2000; ++shot) {
        StabilizerTableau tableau(2);
        tableau.applyH(0);
        tableau.applyCx(0, 1);
        EXPECT_FALSE(tableau.isDeterministic(0));
        const int first = tableau.measure(0, rng);
        EXPECT_TRUE(tableau.isDeterministic(1));
        EXPECT_EQ(tableau.measure(1, rng), first);
        ones += first;
    }
    EXPECT_NEAR(double(ones) / 2000.0, 0.5, 0.05);
}

TEST(TableauTest, DeterministicMeasurementSign)
{
    // |1>: deterministic outcome 1.
    StabilizerTableau tableau(1);
    tableau.applyX(0);
    Rng rng(1);
    EXPECT_TRUE(tableau.isDeterministic(0));
    EXPECT_EQ(tableau.measure(0, rng), 1);

    // GHZ parity: measuring all three qubits gives even parity... of
    // the |000>/|111> mixture: outcomes correlate perfectly.
    StabilizerTableau ghz(3);
    ghz.applyH(0);
    ghz.applyCx(0, 1);
    ghz.applyCx(1, 2);
    const int a = ghz.measure(0, rng);
    EXPECT_EQ(ghz.measure(1, rng), a);
    EXPECT_EQ(ghz.measure(2, rng), a);
}

TEST(TableauTest, RejectsNonClifford)
{
    StabilizerTableau tableau(1);
    Instruction t_gate;
    t_gate.type = OpType::kGate;
    t_gate.name = "t";
    t_gate.qubits = {0};
    t_gate.matrix = CMatrix::identity(2);
    EXPECT_THROW(tableau.applyGate(t_gate), UserError);

    QuantumCircuit qc(1);
    qc.t(0);
    EXPECT_FALSE(isCliffordCircuit(qc));
}

TEST(TableauTest, NamedGatesMatchTheGateTable)
{
    // applyGate takes exactly the rows flagged tableau_native, and on
    // each of them agrees with the update recognized from its matrix.
    StabilizerTableau start(3);
    start.applyH(0);
    start.applyS(1);
    start.applyCx(0, 1);
    start.applyH(2);
    start.applyCx(1, 2);
    for (const GateDef& def : gateTable()) {
        SCOPED_TRACE(std::string(def.name));
        const Instruction gate = test::sampleGate(def);
        EXPECT_EQ(isNamedCliffordGate(gate), def.tableau_native);
        StabilizerTableau named = start;
        if (!def.tableau_native) {
            EXPECT_THROW(named.applyGate(gate), UserError);
            continue;
        }
        named.applyGate(gate);
        const auto action = recognizeClifford(gate);
        ASSERT_TRUE(action.has_value());
        StabilizerTableau recognized = start;
        recognized.applyClifford(*action, gate.qubits);
        for (int i = 0; i < 3; ++i) {
            EXPECT_EQ(named.stabilizer(i).toString(),
                      recognized.stabilizer(i).toString());
            EXPECT_EQ(named.destabilizer(i).toString(),
                      recognized.destabilizer(i).toString());
        }
    }
}

TEST(StabilizerPrepTest, RecognizesCanonicalStates)
{
    // Bell, GHZ, cluster, |+>^n, i-phased superpositions.
    std::vector<CVector> states = {
        algos::bellVector(algos::BellKind::kPhiPlus),
        algos::bellVector(algos::BellKind::kPsiMinus),
        algos::ghzVector(4),
        algos::linearClusterVector(3),
        algos::linearClusterVector(4),
    };
    {
        CVector iphase(2);
        iphase[0] = 1.0 / std::sqrt(2.0);
        iphase[1] = kI / std::sqrt(2.0);
        states.push_back(iphase); // S|+>
    }
    for (const CVector& psi : states) {
        auto prep = stabilizerPrepFromVector(psi);
        ASSERT_TRUE(prep.has_value()) << psi.toString();
        EXPECT_TRUE(isCliffordCircuit(*prep));
        EXPECT_TRUE(finalState(*prep).amplitudes().equalsUpToPhase(
            psi, 1e-8))
            << psi.toString();
    }
}

TEST(StabilizerPrepTest, RejectsNonStabilizerStates)
{
    // W state: uniform over a non-affine support.
    EXPECT_FALSE(stabilizerPrepFromVector(algos::wVector(3)).has_value());
    // T|+>: off-grid phase.
    CVector tplus(2);
    tplus[0] = 1.0 / std::sqrt(2.0);
    tplus[1] = Complex(std::cos(M_PI / 4), std::sin(M_PI / 4)) /
               std::sqrt(2.0);
    EXPECT_FALSE(stabilizerPrepFromVector(tplus).has_value());
    // Non-uniform magnitudes.
    CVector skew(4);
    skew[0] = std::sqrt(0.7);
    skew[3] = std::sqrt(0.3);
    EXPECT_FALSE(stabilizerPrepFromVector(skew).has_value());
}

TEST(StabilizerPrepTest, RandomCliffordRoundTrip)
{
    // Every random Clifford output state must be recognized and
    // re-prepared exactly.
    Rng rng(23);
    for (int trial = 0; trial < 15; ++trial) {
        const int n = 2 + int(rng.index(3));
        QuantumCircuit qc(n);
        for (int g = 0; g < 15; ++g) {
            const int kind = int(rng.index(5));
            const int a = int(rng.index(n));
            int b = int(rng.index(n));
            if (b == a) b = (b + 1) % n;
            switch (kind) {
              case 0: qc.h(a); break;
              case 1: qc.s(a); break;
              case 2: qc.cx(a, b); break;
              case 3: qc.cz(a, b); break;
              case 4: qc.z(a); break;
            }
        }
        const CVector psi = finalState(qc).amplitudes();
        auto prep = stabilizerPrepFromVector(psi);
        ASSERT_TRUE(prep.has_value()) << "trial " << trial;
        EXPECT_TRUE(finalState(*prep).amplitudes().equalsUpToPhase(
            psi, 1e-7))
            << "trial " << trial;
    }
}

TEST(StabilizerPrepTest, ClusterPrepIsMinimal)
{
    // The recognizer reconstructs the canonical H + CZ cluster prep.
    QuantumCircuit prep =
        *stabilizerPrepFromVector(algos::linearClusterVector(4));
    EXPECT_EQ(prep.countGates("h"), 4);
    EXPECT_EQ(prep.countGates("cz"), 3);
    EXPECT_EQ(prep.countCx(), 0);
}

TEST(StabilizerPrepTest, FeedsPrepareState)
{
    // prepareState now routes cluster states through the Clifford path.
    QuantumCircuit prep = prepareState(algos::linearClusterVector(4));
    EXPECT_TRUE(isCliffordCircuit(prep));
    // Lowered cost: 3 CZ -> 3 CX + Hs, far below the multiplexed path.
    EXPECT_LE(prep.countGates("cz") + prep.countCx(), 4);
}

TEST(StabilizerPrepTest, ClusterStateAssertionCost)
{
    // Asserting a cluster state (Table II's "entanglement" family) now
    // costs O(n) CX via the Clifford prep.
    const CVector cluster = algos::linearClusterVector(4);
    AssertedProgram prog(algos::linearClusterPrep(4));
    prog.assertState({0, 1, 2, 3}, StateSet::pure(cluster),
                     AssertionDesign::kSwap);
    EXPECT_LE(prog.slots()[0].cost.cx, 20);
    EXPECT_NEAR(runAssertedExact(prog).slot_error_prob[0], 0.0, 1e-7);
}

TEST(ObservablesTest, ApplyPauliMatchesDenseMatrix)
{
    Rng rng(31);
    for (int trial = 0; trial < 25; ++trial) {
        const int n = 1 + int(rng.index(3));
        PauliString p(n);
        for (int q = 0; q < n; ++q) {
            p.setX(q, rng.bernoulli(0.5));
            p.setZ(q, rng.bernoulli(0.5));
        }
        p.setPhase(int(rng.index(4)));
        const CVector psi = randomState(n, rng);
        const CVector fast = applyPauli(p, psi);
        const CVector dense = p.toMatrix() * psi;
        EXPECT_TRUE(fast.approxEquals(dense, 1e-10))
            << p.toString() << " trial " << trial;
    }
}

TEST(ObservablesTest, ExpectationValues)
{
    // <+|X|+> = 1, <0|X|0> = 0, <0|Z|0> = 1.
    CVector plus{1.0 / std::sqrt(2), 1.0 / std::sqrt(2)};
    test::expectComplexNear(
        pauliExpectation(PauliString::fromLabel("+X"), plus),
        Complex(1.0), 1e-10);
    test::expectComplexNear(
        pauliExpectation(PauliString::fromLabel("+X"),
                         CVector::basisState(2, 0)),
        Complex(0.0), 1e-10);
    test::expectComplexNear(
        pauliExpectation(PauliString::fromLabel("+Z"),
                         CVector::basisState(2, 0)),
        Complex(1.0), 1e-10);
}

TEST(ObservablesTest, StabilizerMembership)
{
    // GHZ is stabilized by XXX, ZZI, IZZ but not by ZII.
    const CVector ghz = algos::ghzVector(3);
    EXPECT_TRUE(stabilizes(PauliString::fromLabel("+XXX"), ghz));
    EXPECT_TRUE(stabilizes(PauliString::fromLabel("+ZZI"), ghz));
    EXPECT_TRUE(stabilizes(PauliString::fromLabel("+IZZ"), ghz));
    EXPECT_FALSE(stabilizes(PauliString::fromLabel("+ZII"), ghz));
    EXPECT_FALSE(stabilizes(PauliString::fromLabel("-XXX"), ghz));

    // Tableau generators of a prepared state stabilize its vector.
    QuantumCircuit prep = algos::linearClusterPrep(3);
    StabilizerTableau tableau = runClifford(prep);
    const CVector cluster = algos::linearClusterVector(3);
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(stabilizes(tableau.stabilizer(i), cluster))
            << tableau.stabilizer(i).toString();
    }
}

} // namespace
} // namespace qa
