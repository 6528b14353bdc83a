/**
 * @file
 * Unit tests for the simulators: statevector evolution, measurement and
 * collapse, exact branching distributions, density-matrix evolution,
 * Kraus channels, noise, and cross-backend agreement.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "circuit/stdgates.hpp"
#include "common/error.hpp"
#include "linalg/states.hpp"
#include "sim/density.hpp"
#include "sim/exact.hpp"
#include "sim/statevector.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

using test::expectMatrixNear;
using test::expectVectorNear;

TEST(StatevectorTest, GroundStateAndSingleGate)
{
    Statevector sv(2);
    EXPECT_EQ(sv.amplitudes()[0], Complex(1.0));
    sv.applyMatrix(gates::x(), {1});
    EXPECT_EQ(sv.amplitudes()[1], Complex(1.0)); // |01>
    sv.applyMatrix(gates::x(), {0});
    EXPECT_EQ(sv.amplitudes()[3], Complex(1.0)); // |11>
}

TEST(StatevectorTest, QubitOrderingMsbFirst)
{
    // X on qubit 0 must set the MOST significant bit.
    Statevector sv(3);
    sv.applyMatrix(gates::x(), {0});
    EXPECT_EQ(sv.amplitudes()[4], Complex(1.0));
}

TEST(StatevectorTest, TwoQubitGateOnArbitraryPair)
{
    // CX with control 2, target 0 on a 3-qubit register.
    Statevector sv(3);
    sv.applyMatrix(gates::x(), {2}); // |001>
    sv.applyMatrix(gates::cx(), {2, 0});
    EXPECT_EQ(sv.amplitudes()[5], Complex(1.0)); // |101>
}

TEST(StatevectorTest, MatchesDenseMatrixReference)
{
    // Random circuit applied gate-by-gate must equal the dense product.
    Rng rng(41);
    for (int trial = 0; trial < 5; ++trial) {
        const int n = 3;
        Statevector sv(n);
        CMatrix dense = CMatrix::identity(8);
        for (int g = 0; g < 6; ++g) {
            if (rng.bernoulli(0.5)) {
                int q = int(rng.index(n));
                CMatrix u = randomUnitary(2, rng);
                sv.applyMatrix(u, {q});
                CMatrix full = CMatrix::identity(1);
                for (int i = 0; i < n; ++i) {
                    full = kron(full, i == q ? u : CMatrix::identity(2));
                }
                dense = full * dense;
            } else {
                int a = int(rng.index(n));
                int b = (a + 1 + int(rng.index(n - 1))) % n;
                CMatrix u = randomUnitary(4, rng);
                sv.applyMatrix(u, {a, b});
                // Build the embedded matrix by explicit index mapping.
                CMatrix full(8, 8);
                for (size_t r = 0; r < 8; ++r) {
                    for (size_t c = 0; c < 8; ++c) {
                        auto sub = [&](size_t idx) {
                            size_t ba = (idx >> (n - 1 - a)) & 1;
                            size_t bb = (idx >> (n - 1 - b)) & 1;
                            return ba * 2 + bb;
                        };
                        auto rest = [&](size_t idx) {
                            return idx & ~((size_t(1) << (n - 1 - a)) |
                                           (size_t(1) << (n - 1 - b)));
                        };
                        if (rest(r) != rest(c)) {
                            full(r, c) = 0.0;
                        } else {
                            full(r, c) = u(sub(r), sub(c));
                        }
                    }
                }
                dense = full * dense;
            }
        }
        CVector expected = dense * CVector::basisState(8, 0);
        expectVectorNear(sv.amplitudes(), expected, 1e-9);
    }
}

TEST(StatevectorTest, ProbabilityAndCollapse)
{
    Statevector sv(2);
    sv.applyMatrix(gates::h(), {0});
    sv.applyMatrix(gates::cx(), {0, 1});
    EXPECT_NEAR(sv.probabilityOne(0), 0.5, 1e-12);
    sv.collapse(0, 1);
    EXPECT_NEAR(std::abs(sv.amplitudes()[3]), 1.0, 1e-12); // |11>
    EXPECT_THROW(sv.collapse(0, 0), UserError); // zero-probability branch
}

TEST(StatevectorTest, MeasurementStatistics)
{
    QuantumCircuit qc(1, 1);
    qc.h(0);
    qc.measure(0, 0);
    Counts counts = runShots(qc, SimOptions{20000, 7, nullptr});
    EXPECT_NEAR(counts.fraction([](const std::string& b) {
        return b == "1";
    }), 0.5, 0.02);
}

TEST(StatevectorTest, ReducedDensity)
{
    Statevector sv(2);
    sv.applyMatrix(gates::h(), {0});
    sv.applyMatrix(gates::cx(), {0, 1});
    CMatrix rho = sv.reducedDensity(0);
    EXPECT_NEAR(rho(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(std::abs(rho(0, 1)), 0.0, 1e-12);
}

TEST(StatevectorTest, ExactDistributionBellPair)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.cx(0, 1);
    qc.measureAll();
    Distribution d = exactDistribution(qc);
    EXPECT_NEAR(d.probability("00"), 0.5, 1e-12);
    EXPECT_NEAR(d.probability("11"), 0.5, 1e-12);
    EXPECT_NEAR(d.probability("01"), 0.0, 1e-12);
}

TEST(StatevectorTest, ExactDistributionMidCircuitMeasure)
{
    // Measure then use the collapsed qubit: teleport-like correlation.
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.measure(0, 0);
    qc.cx(0, 1);
    qc.measure(1, 1);
    Distribution d = exactDistribution(qc);
    EXPECT_NEAR(d.probability("00"), 0.5, 1e-12);
    EXPECT_NEAR(d.probability("11"), 0.5, 1e-12);
}

TEST(StatevectorTest, ResetBranches)
{
    QuantumCircuit qc(1, 1);
    qc.h(0);
    qc.reset(0);
    qc.measure(0, 0);
    Distribution d = exactDistribution(qc);
    EXPECT_NEAR(d.probability("0"), 1.0, 1e-12);
}

TEST(StatevectorTest, SampledMatchesExact)
{
    QuantumCircuit qc(3, 3);
    qc.h(0);
    qc.cx(0, 1);
    qc.u3(2, 1.1, 0.3, 0.2);
    qc.cx(2, 1);
    qc.measureAll();
    Distribution exact = exactDistribution(qc);
    Counts counts = runShots(qc, SimOptions{40000, 99, nullptr});
    for (const auto& [bits, p] : exact.probs) {
        EXPECT_NEAR(counts.toDistribution().probability(bits), p, 0.02)
            << bits;
    }
}

TEST(KrausTest, ChannelValidation)
{
    EXPECT_THROW(KrausChannel("bad", {gates::h() * Complex(0.5, 0.0)}),
                 UserError);
    EXPECT_NO_THROW(KrausChannel::depolarizing(0.1));
    EXPECT_THROW(KrausChannel::depolarizing(1.5), UserError);
}

TEST(KrausTest, AmplitudeDampingFixedPoint)
{
    // |0> is a fixed point of amplitude damping.
    DensityState state(1);
    state.applyKraus(KrausChannel::amplitudeDamping(0.3), 0);
    EXPECT_NEAR(state.rho()(0, 0).real(), 1.0, 1e-12);

    // |1> decays toward |0> with probability gamma.
    DensityState one(densityFromPure(CVector::basisState(2, 1)));
    one.applyKraus(KrausChannel::amplitudeDamping(0.3), 0);
    EXPECT_NEAR(one.rho()(0, 0).real(), 0.3, 1e-12);
    EXPECT_NEAR(one.rho()(1, 1).real(), 0.7, 1e-12);
}

TEST(KrausTest, DepolarizingShrinksBloch)
{
    DensityState plus(densityFromPure(
        CVector{1.0 / std::sqrt(2), 1.0 / std::sqrt(2)}));
    plus.applyKraus(KrausChannel::depolarizing(0.3), 0);
    // Off-diagonal shrinks by (1 - 4p/3 + ...) = 1 - 2*2p/3.
    EXPECT_LT(std::abs(plus.rho()(0, 1)), 0.5);
    EXPECT_NEAR(plus.rho()(0, 0).real(), 0.5, 1e-12);
}

TEST(KrausTest, ChannelsMatchTheOperatorSum)
{
    // Every named channel on every qubit of a random mixed 3-qubit rho
    // equals sum_k E_k rho E_k^dagger, E_k = K_k embedded on the qubit.
    Rng rng(2024);
    const CMatrix rho = randomDensity(3, 4, rng);
    const KrausChannel channels[] = {
        KrausChannel::depolarizing(0.2), KrausChannel::amplitudeDamping(0.3),
        KrausChannel::phaseDamping(0.4), KrausChannel::bitFlip(0.15),
        KrausChannel::phaseFlip(0.25)};
    for (const KrausChannel& channel : channels) {
        for (int q = 0; q < 3; ++q) {
            SCOPED_TRACE(channel.name() + " on qubit " + std::to_string(q));
            CMatrix expected(8, 8);
            for (const CMatrix& k : channel.ops()) {
                CMatrix e = q == 0 ? k : CMatrix::identity(2);
                for (int j = 1; j < 3; ++j) {
                    e = kron(e, j == q ? k : CMatrix::identity(2));
                }
                expected += e * rho * e.dagger();
            }
            DensityState state(rho);
            state.applyKraus(channel, q);
            expectMatrixNear(state.rho(), expected, 1e-12);
        }
    }
}

TEST(DensityTest, PureCircuitMatchesStatevector)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.cx(0, 1);
    qc.u3(2, 0.4, 0.8, 1.2);
    qc.cz(1, 2);
    CMatrix rho = finalDensity(qc);
    CMatrix expected = densityFromPure(finalState(qc).amplitudes());
    expectMatrixNear(rho, expected, 1e-9);
}

TEST(DensityTest, ExactDistributionAgreesWithStatevector)
{
    // One branching walk, two states: seeded random circuits with
    // mid-circuit measurements (each into its own clbit, so the record
    // is compared too) and resets pin each state's probabilityOne,
    // collapse and reset against the other's.
    Rng rng(2021);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = 3;
        QuantumCircuit qc(n, n + 4);
        for (int layer = 0; layer < 4; ++layer) {
            for (int q = 0; q < n; ++q) {
                qc.ry(q, rng.uniform(0.0, 3.0));
                qc.rz(q, rng.uniform(0.0, 6.0));
            }
            const int a = int(rng.index(n));
            qc.cx(a, (a + 1 + int(rng.index(n - 1))) % n);
            qc.measure(int(rng.index(n)), n + layer);
            qc.reset(int(rng.index(n)));
        }
        qc.measureAll();

        const Distribution sv = exactDistribution(qc);
        const Distribution dm = exactDistributionDM(qc);
        for (const auto& [bits, p] : sv.probs) {
            EXPECT_NEAR(dm.probability(bits), p, 1e-9)
                << "trial " << trial << " " << bits;
        }
        for (const auto& [bits, p] : dm.probs) {
            EXPECT_NEAR(sv.probability(bits), p, 1e-9)
                << "trial " << trial << " " << bits;
        }
        EXPECT_NEAR(sv.mass([](const std::string&) { return true; }), 1.0,
                    1e-9)
            << "trial " << trial;
    }
}

TEST(DensityTest, TrajectoryNoiseMatchesExactChannel)
{
    // Statevector trajectory sampling must converge to the DM channel.
    QuantumCircuit qc(1, 1);
    qc.h(0);
    qc.h(0); // two gates => two noise applications
    qc.measure(0, 0);

    NoiseModel noise = NoiseModel::depolarizing(0.2, 0.0);
    Distribution exact = exactDistributionDM(qc, &noise);
    Counts sampled = runShots(qc, SimOptions{60000, 5, &noise});
    EXPECT_NEAR(sampled.toDistribution().probability("1"),
                exact.probability("1"), 0.01);
}

TEST(DensityTest, ReadoutErrorAsymmetry)
{
    NoiseModel noise;
    noise.readout_p01 = 0.1;
    noise.readout_p10 = 0.3;

    QuantumCircuit zero(1, 1);
    zero.measure(0, 0);
    Distribution d0 = exactDistributionDM(zero, &noise);
    EXPECT_NEAR(d0.probability("1"), 0.1, 1e-9);

    QuantumCircuit one(1, 1);
    one.x(0);
    one.measure(0, 0);
    Distribution d1 = exactDistributionDM(one, &noise);
    EXPECT_NEAR(d1.probability("0"), 0.3, 1e-9);
}

TEST(DensityTest, CollapseNormalizes)
{
    DensityState state(2);
    state.applyMatrix(gates::h(), {0});
    state.applyMatrix(gates::cx(), {0, 1});
    EXPECT_NEAR(state.probabilityOne(1), 0.5, 1e-12);
    state.collapse(1, 1);
    test::expectComplexNear(state.rho().trace(), Complex(1.0), 1e-10);
    EXPECT_NEAR(state.rho()(3, 3).real(), 1.0, 1e-10);
}

TEST(ResultTest, MarginalAndPredicates)
{
    Counts counts;
    counts.shots = 10;
    counts.map["010"] = 4;
    counts.map["110"] = 6;
    Counts marg = marginalCounts(counts, {1, 2});
    EXPECT_EQ(marg.map.at("10"), 10);
    EXPECT_NEAR(counts.fractionAllZero({2}), 1.0, 1e-12);
    EXPECT_NEAR(counts.fractionAllZero({0}), 0.4, 1e-12);

    Distribution dist;
    dist.probs["01"] = 0.25;
    dist.probs["00"] = 0.75;
    EXPECT_NEAR(dist.allZero({0}), 1.0, 1e-12);
    EXPECT_NEAR(dist.allZero({1}), 0.75, 1e-12);
    Distribution dmarg = marginalDistribution(dist, {1});
    EXPECT_NEAR(dmarg.probability("1"), 0.25, 1e-12);
}

TEST(ResultTest, MergeCountsSumsEntriesAndShots)
{
    Counts a;
    a.shots = 3;
    a.map["00"] = 2;
    a.map["01"] = 1;
    Counts b;
    b.shots = 4;
    b.map["01"] = 3;
    b.map["11"] = 1;

    mergeCounts(a, b);
    EXPECT_EQ(a.shots, 7);
    EXPECT_EQ(a.map.at("00"), 2);
    EXPECT_EQ(a.map.at("01"), 4);
    EXPECT_EQ(a.map.at("11"), 1);
    EXPECT_FALSE(a.truncated);

    // Merging an empty source is a no-op.
    mergeCounts(a, Counts{});
    EXPECT_EQ(a.shots, 7);
    EXPECT_EQ(a.map.size(), 3u);
}

TEST(ResultTest, MergeCountsOrsTruncatedFlag)
{
    Counts full;
    full.shots = 5;
    full.map["0"] = 5;
    Counts cut;
    cut.shots = 2;
    cut.map["1"] = 2;
    cut.truncated = true;

    // Either merge order leaves the result marked truncated.
    Counts lhs = full;
    mergeCounts(lhs, cut);
    EXPECT_TRUE(lhs.truncated);
    EXPECT_EQ(lhs.shots, 7);

    Counts rhs = cut;
    mergeCounts(rhs, full);
    EXPECT_TRUE(rhs.truncated);
    EXPECT_EQ(rhs.shots, 7);
}

TEST(ResultTest, MarginalCountsPropagatesTruncated)
{
    Counts counts;
    counts.shots = 4;
    counts.truncated = true;
    counts.map["01"] = 4;
    const Counts marg = marginalCounts(counts, {1});
    EXPECT_TRUE(marg.truncated);
    EXPECT_EQ(marg.shots, 4);
    EXPECT_EQ(marg.map.at("1"), 4);
}

TEST(NoiseTest, PresetsEnabled)
{
    EXPECT_FALSE(NoiseModel{}.enabled());
    EXPECT_TRUE(NoiseModel::ibmqMelbourneLike().enabled());
    EXPECT_TRUE(NoiseModel::depolarizing(0.01, 0.05).enabled());
}

} // namespace
} // namespace qa
