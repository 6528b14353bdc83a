/**
 * @file
 * Tests for the stabilizer substrate: Pauli algebra, the tableau
 * simulator (cross-validated against the dense statevector backend),
 * and stabilizer-state recognition in the synthesis pipeline.
 */
#include <array>
#include <cmath>
#include <optional>
#include <set>
#include <string_view>

#include <gtest/gtest.h>

#include "algos/states.hpp"
#include "circuit/stdgates.hpp"
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

/** h q[0]; cx q[0],q[1]. */
QuantumCircuit
bellPair()
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.cx(0, 1);
    return qc;
}

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
    const StabilizerTableau tableau = runClifford(bellPair());
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
        StabilizerTableau tableau(n);
        ASSERT_NO_THROW(tableau = runClifford(qc));
        const CVector via_tableau = tableau.toStatevector();
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
    const StabilizerTableau bell = runClifford(bellPair());
    for (int shot = 0; shot < 2000; ++shot) {
        StabilizerTableau tableau = bell;
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
    QuantumCircuit ghz_prep(3);
    ghz_prep.h(0);
    ghz_prep.cx(0, 1);
    ghz_prep.cx(1, 2);
    StabilizerTableau ghz = runClifford(ghz_prep);
    const int a = ghz.measure(0, rng);
    EXPECT_EQ(ghz.measure(1, rng), a);
    EXPECT_EQ(ghz.measure(2, rng), a);
}

TEST(TableauTest, RejectsNonClifford)
{
    // A gate-table row is classified by its name, whatever matrix the
    // instruction carries.
    Instruction t_gate;
    t_gate.type = OpType::kGate;
    t_gate.name = "t";
    t_gate.qubits = {0};
    t_gate.matrix = CMatrix::identity(2);
    EXPECT_FALSE(cliffordAction(t_gate).has_value());

    for (GateId id : {GateId::kT, GateId::kTdg, GateId::kCh, GateId::kCcx}) {
        const GateDef& def = gateDef(id);
        EXPECT_FALSE(cliffordAction(test::sampleGate(def)).has_value())
            << def.name;
    }
    EXPECT_FALSE(
        cliffordAction(makeGate(gateDef(GateId::kRz), {0}, {M_PI / 4.0}))
            .has_value());

    QuantumCircuit qc(1);
    qc.t(0);
    EXPECT_THROW(runClifford(qc), UserError);
}

TEST(TableauTest, NamedGatesMatchTheGateTable)
{
    // The parameterless Clifford rows are exactly the ones with an
    // action, and each row's cached action equals the one recognized
    // from the same matrix under an opaque name, on the tableau too.
    const std::set<std::string_view> cliffords = {
        "id", "x", "y", "z", "h", "s", "sdg", "sx",
        "cx", "cy", "cz", "swap"};
    QuantumCircuit prep(3);
    prep.h(0);
    prep.s(1);
    prep.cx(0, 1);
    prep.h(2);
    prep.cx(1, 2);
    const StabilizerTableau start = runClifford(prep);
    for (const GateDef& def : gateTable()) {
        SCOPED_TRACE(std::string(def.name));
        const Instruction gate = test::sampleGate(def);
        Instruction opaque = gate;
        opaque.name = "unitary";
        const std::optional<CliffordAction> named = cliffordAction(gate);
        const std::optional<CliffordAction> matrix = cliffordAction(opaque);
        EXPECT_EQ(named.has_value(), cliffords.count(def.name) != 0);
        ASSERT_EQ(named.has_value(), matrix.has_value());
        if (!named.has_value()) continue;
        EXPECT_EQ(named->arity, matrix->arity);
        EXPECT_EQ(named->image, matrix->image);
        StabilizerTableau by_row = start;
        by_row.applyClifford(*named, gate.qubits);
        StabilizerTableau by_matrix = start;
        by_matrix.applyClifford(*matrix, gate.qubits);
        for (int i = 0; i < 3; ++i) {
            EXPECT_EQ(by_row.stabilizer(i).toString(),
                      by_matrix.stabilizer(i).toString());
            EXPECT_EQ(by_row.destabilizer(i).toString(),
                      by_matrix.destabilizer(i).toString());
        }
    }
}

// ---------------------------------------------------------------------
// Classifier property test: cliffordAction against a dense reference

/**
 * Dense reference for cliffordAction: U P U^dag for every local Pauli P
 * by CMatrix products, each matched against all 2 * 4^k signed Paulis
 * at 1e-9. Returns the image table in CliffordAction's layout, or
 * nullopt when an image is not a signed Pauli (or U is not 2x2/4x4).
 */
std::optional<std::array<uint8_t, 16>>
denseImages(const CMatrix& u)
{
    if (u.rows() != 2 && u.rows() != 4) return std::nullopt;
    const int k = u.rows() == 2 ? 1 : 2;
    const uint32_t size = 1u << (2 * k);
    const auto local = [k](uint32_t p, int phase) {
        PauliString out(k);
        for (int j = 0; j < k; ++j) {
            out.setX(j, (p >> j) & 1);
            out.setZ(j, (p >> (k + j)) & 1);
        }
        out.setPhase(phase);
        return out.toMatrix();
    };
    const auto close = [](const CMatrix& a, const CMatrix& b) {
        for (size_t r = 0; r < a.rows(); ++r) {
            for (size_t c = 0; c < a.cols(); ++c) {
                if (std::abs(a(r, c) - b(r, c)) > 1e-9) return false;
            }
        }
        return true;
    };
    std::array<uint8_t, 16> table{};
    for (uint32_t p = 0; p < size; ++p) {
        const CMatrix image = u * local(p, 0) * u.dagger();
        bool found = false;
        for (uint32_t q = 0; q < size && !found; ++q) {
            for (int phase : {0, 2}) {
                if (!close(image, local(q, phase))) continue;
                table[p] = uint8_t(q | (phase != 0 ? CliffordAction::kMinus
                                                   : 0));
                found = true;
                break;
            }
        }
        if (!found) return std::nullopt;
    }
    return table;
}

/** cliffordAction and the dense reference agree on verdict and table. */
void
expectMatchesDense(const Instruction& gate)
{
    const std::optional<CliffordAction> action = cliffordAction(gate);
    const auto dense = denseImages(gate.matrix);
    ASSERT_EQ(action.has_value(), dense.has_value()) << gate.name;
    if (!action.has_value()) return;
    EXPECT_EQ(action->arity, int(gate.arity())) << gate.name;
    EXPECT_EQ(action->image, *dense) << gate.name;
}

/** A `unitary` instruction on qubits 0.. of the matrix's width. */
Instruction
unitaryGate(const CMatrix& u)
{
    Instruction gate;
    gate.type = OpType::kGate;
    gate.name = "unitary";
    gate.qubits = u.rows() == 2 ? std::vector<int>{0}
                                : std::vector<int>{0, 1};
    gate.matrix = u;
    return gate;
}

TEST(CliffordClassifierTest, GateTableRowsMatchDenseReference)
{
    for (const GateDef& def : gateTable()) {
        SCOPED_TRACE(std::string(def.name));
        expectMatchesDense(test::sampleGate(def));
    }
}

TEST(CliffordClassifierTest, RandomCliffordWordsUnderGlobalPhase)
{
    const GateId one[] = {GateId::kH, GateId::kS, GateId::kSdg, GateId::kX,
                          GateId::kY, GateId::kZ, GateId::kSx};
    const GateId two[] = {GateId::kCx, GateId::kCy, GateId::kCz,
                          GateId::kSwap};
    const CMatrix id2 = CMatrix::identity(2);
    const CMatrix swap = gates::swap();
    Rng rng(5);
    for (int trial = 0; trial < 200; ++trial) {
        const int k = 1 + trial % 2;
        CMatrix u = CMatrix::identity(size_t(1) << k);
        for (int g = 0; g < 8; ++g) {
            CMatrix step;
            if (k == 2 && rng.bernoulli(0.4)) {
                step = gateDef(two[rng.index(std::size(two))]).matrix(nullptr);
                if (rng.bernoulli(0.5)) step = swap * step * swap;
            } else {
                const CMatrix m =
                    gateDef(one[rng.index(std::size(one))]).matrix(nullptr);
                step = k == 1 ? m
                              : (rng.bernoulli(0.5) ? kron(m, id2)
                                                    : kron(id2, m));
            }
            u = step * u;
        }
        u = u * std::polar(1.0, rng.uniform(0.0, 2.0 * M_PI));
        SCOPED_TRACE("trial " + std::to_string(trial));
        const Instruction gate = unitaryGate(u);
        EXPECT_TRUE(cliffordAction(gate).has_value());
        expectMatchesDense(gate);
    }
}

TEST(CliffordClassifierTest, RotationAnglesMatchDenseReference)
{
    // Random angles, half of them multiples of pi/2.
    const GateId ids[] = {GateId::kU3, GateId::kCp, GateId::kRz,
                          GateId::kRx, GateId::kRy};
    Rng rng(7);
    int cliffords = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const GateDef& def = gateDef(ids[trial % std::size(ids)]);
        std::vector<double> params;
        for (int p = 0; p < def.num_params; ++p) {
            params.push_back(rng.bernoulli(0.5)
                                 ? double(int(rng.index(9)) - 4) * M_PI / 2.0
                                 : rng.uniform(-2.0 * M_PI, 2.0 * M_PI));
        }
        const Instruction gate =
            makeGate(def, def.num_qubits == 1 ? std::vector<int>{0}
                                              : std::vector<int>{0, 1},
                     params);
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectMatchesDense(gate);
        cliffords += cliffordAction(gate).has_value() ? 1 : 0;
    }
    EXPECT_GT(cliffords, 50);
}

TEST(CliffordClassifierTest, ToleranceKeepsNearCliffordAnglesOnly)
{
    // Multiples of pi/2 keep their verdict 1e-12 off and are never
    // Clifford 1e-6 off: the entry-wise tolerance is 1e-9. (cp is
    // Clifford only at multiples of pi; the others at every multiple.)
    const GateId ids[] = {GateId::kU3, GateId::kCp, GateId::kRz,
                          GateId::kRx, GateId::kRy};
    for (const GateId id : ids) {
        const GateDef& def = gateDef(id);
        const std::vector<int> qubits =
            def.num_qubits == 1 ? std::vector<int>{0}
                                : std::vector<int>{0, 1};
        for (int m = -4; m <= 4; ++m) {
            SCOPED_TRACE(std::string(def.name) + " m " + std::to_string(m));
            const bool clifford = id != GateId::kCp || m % 2 == 0;
            for (const double offset : {0.0, 1e-12, 1e-6}) {
                std::vector<double> params;
                for (int p = 0; p < def.num_params; ++p) {
                    params.push_back(double(m + p) * M_PI / 2.0 + offset);
                }
                const Instruction gate = makeGate(def, qubits, params);
                EXPECT_EQ(cliffordAction(gate).has_value(),
                          clifford && offset < 1e-9)
                    << "offset " << offset;
                expectMatchesDense(gate);
            }
        }
    }
}

TEST(CliffordClassifierTest, UnitaryInstructionsMatchDenseReference)
{
    Rng rng(9);
    for (int trial = 0; trial < 40; ++trial) {
        const size_t dim = trial % 2 == 0 ? 2 : 4;
        expectMatchesDense(unitaryGate(randomUnitary(dim, rng)));
    }
    // Clifford matrices under an opaque name.
    expectMatchesDense(unitaryGate(gates::h() * gates::s()));
    expectMatchesDense(unitaryGate(gates::cy() * kron(gates::sx(),
                                                      gates::h())));
    EXPECT_TRUE(cliffordAction(unitaryGate(gates::cz())).has_value());
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
        EXPECT_NO_THROW(runClifford(*prep));
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
    EXPECT_NO_THROW(runClifford(prep));
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
