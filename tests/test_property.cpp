/**
 * @file
 * Randomized property tests over the whole stack:
 *  - design equivalence: all four assertion designs produce identical
 *    exact error probabilities on random targets and rank regimes;
 *  - non-disturbance: passing assertions leave the program's output
 *    distribution exactly unchanged, including on entangled subsets;
 *  - pipeline invariance: lowering + peephole preserve the exact
 *    outcome distribution of measuring circuits;
 *  - sampled-vs-exact agreement for random asserted programs;
 *  - affine recognition against a brute-force reference.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "linalg/eigen.hpp"
#include "linalg/gram_schmidt.hpp"
#include "linalg/states.hpp"
#include "sim/exact.hpp"
#include "sim/statevector.hpp"
#include "synth/cnot_synth.hpp"
#include "synth/state_prep.hpp"
#include "transpile/peephole.hpp"

namespace qa
{
namespace
{

QuantumCircuit
randomProgram(int n, int gates, Rng& rng, bool with_measure = false)
{
    QuantumCircuit qc(n, with_measure ? n : 0);
    for (int g = 0; g < gates; ++g) {
        const int kind = int(rng.index(7));
        const int a = int(rng.index(n));
        int b = int(rng.index(n));
        if (b == a) b = (b + 1) % n;
        switch (kind) {
          case 0: qc.h(a); break;
          case 1:
            qc.u3(a, rng.uniform(0, 3), rng.uniform(0, 3),
                  rng.uniform(0, 3));
            break;
          case 2: qc.cx(a, b); break;
          case 3: qc.cz(a, b); break;
          case 4: qc.t(a); break;
          case 5: qc.swap(a, b); break;
          case 6: qc.rz(a, rng.uniform(-2, 2)); break;
        }
    }
    if (with_measure) qc.measureAll();
    return qc;
}

/** Exact slot error for asserting `set` against a prepared state. */
double
exactError(const CVector& prepared, const StateSet& set,
           AssertionDesign design)
{
    AssertedProgram prog(prepareState(prepared));
    std::vector<int> qubits;
    for (int q = 0; q < prog.numProgramQubits(); ++q) qubits.push_back(q);
    prog.assertState(qubits, set, design);
    return runAssertedExact(prog).slot_error_prob[0];
}

class DesignEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(DesignEquivalence, AllDesignsAgreeOnErrorProbability)
{
    const int n = std::get<0>(GetParam());
    const int rank = std::get<1>(GetParam());
    if (rank >= (1 << n)) GTEST_SKIP();
    Rng rng(uint64_t(7000 + 13 * n + rank));

    // Random rank-`rank` correct subspace.
    std::vector<CVector> members;
    for (int i = 0; i < rank; ++i) members.push_back(randomState(n, rng));
    std::vector<CVector> ortho = orthonormalize(members);
    while (int(ortho.size()) < rank) {
        ortho.push_back(randomState(n, rng));
        ortho = orthonormalize(ortho);
    }
    const StateSet set = rank == 1 ? StateSet::pure(ortho[0])
                                   : StateSet::approximate(ortho);

    for (int trial = 0; trial < 3; ++trial) {
        const CVector probe = randomState(n, rng);
        const double reference =
            exactError(probe, set, AssertionDesign::kSwap);
        for (AssertionDesign design :
             {AssertionDesign::kOr, AssertionDesign::kNdd,
              AssertionDesign::kProq}) {
            EXPECT_NEAR(exactError(probe, set, design), reference, 1e-6)
                << "n=" << n << " rank=" << rank << " design "
                << designName(design);
        }
        // The theoretical value: 1 - <probe|P|probe>.
        CorrectSubspace ss = analyzeStateSet(set);
        const double overlap =
            probe.inner(ss.projector() * probe).real();
        EXPECT_NEAR(reference, 1.0 - overlap, 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DesignEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 3, 5)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& param_info) {
        return "n" + std::to_string(std::get<0>(param_info.param)) + "_t" +
               std::to_string(std::get<1>(param_info.param));
    });

TEST(NonDisturbanceTest, PassingAssertionKeepsOutputDistribution)
{
    // Program -> (assert true reduced state of random subset) ->
    // measure: the program-bit distribution must equal the unasserted
    // run exactly.
    Rng rng(801);
    for (int trial = 0; trial < 5; ++trial) {
        const int n = 3;
        QuantumCircuit program = randomProgram(n, 12, rng);
        const CVector state = finalState(program).amplitudes();

        // Random nonempty proper subset of qubits.
        std::vector<int> subset;
        for (int q = 0; q < n; ++q) {
            if (rng.bernoulli(0.5)) subset.push_back(q);
        }
        if (subset.empty()) subset.push_back(int(rng.index(n)));

        const CMatrix rho =
            partialTrace(densityFromPure(state), subset);
        StateSet set = rankPsd(rho) == (size_t(1) << subset.size())
                           ? StateSet::pure(state) // full rank: assert all
                           : StateSet::mixed(rho);
        std::vector<int> target = int(set.numQubits()) == n
                                      ? [&] {
                                            std::vector<int> all;
                                            for (int q = 0; q < n; ++q) {
                                                all.push_back(q);
                                            }
                                            return all;
                                        }()
                                      : subset;

        AssertedProgram asserted(program);
        asserted.assertState(target, set, AssertionDesign::kSwap);
        asserted.measureProgram();
        const AssertionOutcomeExact with = runAssertedExact(asserted);
        EXPECT_NEAR(with.pass_prob, 1.0, 1e-7) << "trial " << trial;

        AssertedProgram plain(program);
        plain.measureProgram();
        const AssertionOutcomeExact without = runAssertedExact(plain);
        for (const auto& [bits, p] : without.program_dist.probs) {
            EXPECT_NEAR(with.program_dist.probability(bits), p, 1e-7)
                << "trial " << trial << " bits " << bits;
        }
    }
}

TEST(PipelineInvarianceTest, LoweringPreservesMeasuredDistributions)
{
    Rng rng(802);
    for (int trial = 0; trial < 5; ++trial) {
        QuantumCircuit qc = randomProgram(3, 10, rng, true);
        const Distribution before = exactDistribution(qc);
        const Distribution after =
            exactDistribution(optimizeAndLower(qc));
        for (const auto& [bits, p] : before.probs) {
            EXPECT_NEAR(after.probability(bits), p, 1e-7)
                << "trial " << trial;
        }
    }
}

TEST(PipelineInvarianceTest, AssertedCircuitSurvivesLowering)
{
    // Lower the full asserted circuit (including mid-circuit ancilla
    // measurement) and compare exact distributions.
    Rng rng(803);
    const CVector psi = randomState(2, rng);
    AssertedProgram prog(prepareState(psi));
    prog.assertState({0, 1}, StateSet::pure(psi), AssertionDesign::kNdd);
    prog.measureProgram();
    const Distribution before = exactDistribution(prog.circuit());
    const Distribution after =
        exactDistribution(optimizeAndLower(prog.circuit()));
    for (const auto& [bits, p] : before.probs) {
        EXPECT_NEAR(after.probability(bits), p, 1e-7) << bits;
    }
}

TEST(SampledVsExactTest, RandomAssertedPrograms)
{
    Rng rng(804);
    for (int trial = 0; trial < 3; ++trial) {
        QuantumCircuit program = randomProgram(2, 8, rng);
        const CVector asserted_state = randomState(2, rng);
        AssertedProgram prog(program);
        prog.assertState({0, 1}, StateSet::pure(asserted_state),
                         AssertionDesign::kSwap);
        prog.measureProgram();
        const AssertionOutcomeExact exact = runAssertedExact(prog);
        SimOptions options;
        options.shots = 30000;
        options.seed = 900 + uint64_t(trial);
        const AssertionOutcome sampled = runAsserted(prog, options);
        EXPECT_NEAR(sampled.slot_error_rate[0], exact.slot_error_prob[0],
                    0.02)
            << "trial " << trial;
        for (const auto& [bits, p] : exact.program_dist.probs) {
            EXPECT_NEAR(
                sampled.program_counts.toDistribution().probability(bits),
                p, 0.02)
                << "trial " << trial;
        }
    }
}

TEST(AffineRecognitionTest, AgreesWithBruteForce)
{
    // Random subsets of GF(2)^n: findAffineCompression accepts exactly
    // the affine ones (offset + closed under pairwise XOR).
    Rng rng(805);
    const int n = 4;
    for (int trial = 0; trial < 200; ++trial) {
        const size_t count = 1 + rng.index(8);
        std::vector<uint64_t> elems;
        std::vector<bool> used(1 << n, false);
        while (elems.size() < count) {
            const uint64_t e = rng.index(1 << n);
            if (!used[e]) {
                used[e] = true;
                elems.push_back(e);
            }
        }
        // Brute force: affine iff for all a,b,c in set, a^b^c in set.
        bool affine = (count & (count - 1)) == 0;
        if (affine) {
            for (uint64_t a : elems) {
                for (uint64_t b : elems) {
                    for (uint64_t c : elems) {
                        if (!used[a ^ b ^ c]) affine = false;
                    }
                }
            }
        }
        const auto comp = findAffineCompression(elems, n);
        EXPECT_EQ(comp.has_value(), affine) << "trial " << trial;
        if (comp) {
            for (uint64_t e : elems) {
                const uint64_t img = comp->map.apply(e ^ comp->offset);
                for (int f : comp->check_qubits) {
                    EXPECT_EQ((img >> f) & 1, 0u);
                }
            }
        }
    }
}

TEST(AncillaPoolTest, ManySlotsStayNarrow)
{
    // 20 sequential assertions on a 2-qubit program must not grow the
    // register beyond program + max-needed ancillas.
    Rng rng(806);
    const CVector psi = randomState(2, rng);
    AssertedProgram prog(prepareState(psi));
    for (int i = 0; i < 20; ++i) {
        prog.assertState({0, 1}, StateSet::pure(psi),
                         i % 2 ? AssertionDesign::kNdd
                               : AssertionDesign::kSwap);
    }
    EXPECT_LE(prog.circuit().numQubits(), 4);
    EXPECT_EQ(prog.slots().size(), 20u);
    const AssertionOutcomeExact outcome = runAssertedExact(prog);
    EXPECT_NEAR(outcome.pass_prob, 1.0, 1e-6);
}

} // namespace
} // namespace qa
