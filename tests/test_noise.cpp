/**
 * @file
 * Noise-model tests: channel semantics, trajectory-vs-exact agreement
 * per channel family, and the noise behaviours the Sec. IX-B
 * reproduction depends on (asymmetric readout justifying the |0>=pass
 * convention, error-rate floors, filtering).
 */
#include <cmath>

#include <gtest/gtest.h>

#include "algos/states.hpp"
#include "common/error.hpp"
#include "core/runner.hpp"
#include "linalg/states.hpp"
#include "sim/density.hpp"
#include "sim/exact.hpp"
#include "sim/statevector.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

TEST(NoiseChannelTest, TrajectoryMatchesExactPerChannel)
{
    // For each channel family, stochastic trajectories through the
    // statevector backend must converge to the exact DM channel.
    struct Case
    {
        const char* name;
        KrausChannel channel;
    };
    const std::vector<Case> cases = {
        {"depolarizing", KrausChannel::depolarizing(0.15)},
        {"amplitude damping", KrausChannel::amplitudeDamping(0.25)},
        {"phase damping", KrausChannel::phaseDamping(0.3)},
        {"bit flip", KrausChannel::bitFlip(0.2)},
        {"phase flip", KrausChannel::phaseFlip(0.2)},
    };
    for (const Case& test_case : cases) {
        // Start from |+> so both diagonal and coherence effects show.
        DensityState exact(densityFromPure(
            CVector{1.0 / std::sqrt(2), 1.0 / std::sqrt(2)}));
        exact.applyKraus(test_case.channel, 0);

        Rng rng(99);
        CMatrix averaged(2, 2);
        const int trajectories = 60000;
        for (int t = 0; t < trajectories; ++t) {
            Statevector sv(
                CVector{1.0 / std::sqrt(2), 1.0 / std::sqrt(2)});
            sv.applyKrausTrajectory(test_case.channel, 0, rng);
            averaged += sv.reducedDensity(0);
        }
        averaged *= Complex(1.0 / trajectories, 0.0);
        for (size_t r = 0; r < 2; ++r) {
            for (size_t c = 0; c < 2; ++c) {
                EXPECT_NEAR(std::abs(averaged(r, c) - exact.rho()(r, c)),
                            0.0, 0.01)
                    << test_case.name;
            }
        }
    }
}

TEST(NoiseChannelTest, PhaseDampingKillsCoherenceOnly)
{
    DensityState state(densityFromPure(
        CVector{1.0 / std::sqrt(2), 1.0 / std::sqrt(2)}));
    state.applyKraus(KrausChannel::phaseDamping(1.0), 0);
    EXPECT_NEAR(state.rho()(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(state.rho()(1, 1).real(), 0.5, 1e-12);
    EXPECT_NEAR(std::abs(state.rho()(0, 1)), 0.0, 1e-12);
}

TEST(NoiseModelTest, AsymmetricReadoutFavoursZeroConvention)
{
    // The paper's rationale for |0> = pass: |1> reads out worse. With
    // the melbourne-like model, a |1>-flagging convention would have a
    // strictly higher false-pass rate than the |0> convention's
    // false-fail rate asymmetry.
    const NoiseModel noise = NoiseModel::ibmqMelbourneLike();
    EXPECT_GT(noise.readout_p10, noise.readout_p01);

    QuantumCircuit one(1, 1);
    one.x(0);
    one.measure(0, 0);
    const Distribution d1 = exactDistributionDM(one, &noise);
    QuantumCircuit zero(1, 1);
    zero.measure(0, 0);
    const Distribution d0 = exactDistributionDM(zero, &noise);
    // Reading |1> wrongly (assertion error lost) is more likely than
    // reading |0> wrongly (spurious error).
    EXPECT_GT(d1.probability("0"), d0.probability("1"));
}

TEST(NoiseModelTest, AssertionErrorFloorGrowsWithCircuitSize)
{
    // Under fixed noise, bigger instances of the SAME design have a
    // higher false-positive floor -- the paper's reason to prize cheap
    // assertion circuits. (Across designs the floor also depends on the
    // measurement count, so the comparison is only monotone within a
    // design family.)
    const NoiseModel noise = NoiseModel::depolarizing(0.002, 0.02);
    auto floorFor = [&](int n) {
        AssertedProgram prog(algos::ghzPrep(n));
        std::vector<int> qubits;
        for (int q = 0; q < n; ++q) qubits.push_back(q);
        prog.assertState(qubits, StateSet::pure(algos::ghzVector(n)),
                         AssertionDesign::kSwap);
        SimOptions options;
        options.shots = 8192;
        options.seed = 55;
        options.noise = &noise;
        return runAsserted(prog, options).slot_error_rate[0];
    };
    const double floor3 = floorFor(3);
    const double floor5 = floorFor(5);
    EXPECT_GT(floor3, 0.01); // a floor exists at all
    EXPECT_GT(floor5, floor3 + 0.02);
}

TEST(NoiseModelTest, FilteringNeverHurtsFidelityOfKeptShots)
{
    // Post-selected GHZ output under noise must have higher ideal-mass
    // than the unfiltered output.
    const NoiseModel noise = NoiseModel::ibmqMelbourneLike();
    AssertedProgram prog(algos::ghzPrep(3));
    prog.assertState({0, 1, 2}, StateSet::pure(algos::ghzVector(3)),
                     AssertionDesign::kNdd);
    prog.measureProgram();
    SimOptions options;
    options.shots = 16384;
    options.seed = 66;
    options.noise = &noise;
    const AssertionOutcome out = runAsserted(prog, options);

    auto idealMass = [](const Counts& counts) {
        const Distribution d = counts.toDistribution();
        return d.probability("000") + d.probability("111");
    };
    EXPECT_GT(idealMass(out.program_counts_passed),
              idealMass(out.program_counts) + 0.01);
}

TEST(NoiseModelTest, ExactNoisyBranchingConservesProbability)
{
    const NoiseModel noise = NoiseModel::ibmqMelbourneLike();
    AssertedProgram prog(algos::bellPrep(algos::BellKind::kPhiPlus));
    prog.assertState({0, 1},
                     StateSet::pure(algos::bellVector(
                         algos::BellKind::kPhiPlus)),
                     AssertionDesign::kSwap);
    prog.measureProgram();
    const AssertionOutcomeExact out = runAssertedExact(prog, &noise);
    double total = 0.0;
    for (const auto& [bits, p] : out.raw.probs) total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

/** The validation diagnostic for a model, empty when it passes. */
std::string
validationDiagnostic(const NoiseModel& noise)
{
    try {
        noise.validate();
    } catch (const UserError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidNoiseModel) << e.what();
        return e.what();
    }
    return "";
}

TEST(NoiseValidationTest, BuiltinModelsValidate)
{
    EXPECT_EQ(validationDiagnostic(NoiseModel{}), "");
    EXPECT_EQ(validationDiagnostic(NoiseModel::ibmqMelbourneLike()), "");
    EXPECT_EQ(validationDiagnostic(NoiseModel::depolarizing(0.01, 0.03)),
              "");
}

TEST(NoiseValidationTest, ReadoutProbabilitiesMustBeProbabilities)
{
    NoiseModel noise;
    noise.readout_p01 = 1.2;
    std::string msg = validationDiagnostic(noise);
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("readout_p01"), std::string::npos) << msg;

    noise = NoiseModel{};
    noise.readout_p10 = -0.1;
    msg = validationDiagnostic(noise);
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("readout_p10"), std::string::npos) << msg;
}

TEST(NoiseValidationTest, NonTracePreservingChannelIsNamed)
{
    // KrausChannel::raw skips the constructor's TP check, standing in
    // for a channel assembled from bad calibration data.
    CMatrix half = CMatrix::identity(2);
    half(0, 0) = 0.5;
    half(1, 1) = 0.5;
    const KrausChannel bad =
        KrausChannel::raw("bad_calibration", {half});
    EXPECT_FALSE(bad.isTracePreserving());

    NoiseModel noise;
    noise.noise_1q.push_back(bad);
    std::string msg = validationDiagnostic(noise);
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("bad_calibration"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1q"), std::string::npos) << msg;

    NoiseModel noise2q;
    noise2q.noise_2q.push_back(bad);
    msg = validationDiagnostic(noise2q);
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("2q"), std::string::npos) << msg;
}

TEST(NoiseValidationTest, EngineValidatesOnUse)
{
    // The shot engine and the exact backend both refuse to run with an
    // invalid model, so bad calibration fails fast instead of skewing
    // results.
    NoiseModel noise = NoiseModel::depolarizing(0.01, 0.03);
    noise.readout_p01 = 2.0;

    QuantumCircuit qc(1, 1);
    qc.h(0);
    qc.measure(0, 0);
    SimOptions options;
    options.shots = 10;
    options.noise = &noise;
    EXPECT_THROW(runShots(qc, options), UserError);
    EXPECT_THROW(exactDistributionDM(qc, &noise), UserError);
}

} // namespace
} // namespace qa
