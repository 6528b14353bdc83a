/**
 * @file
 * Functional tests of the assertion designs: pass/fail semantics for
 * pure, mixed, and approximate assertions across every design and rank
 * regime, non-destructiveness, entanglement preservation, the SWAP
 * state-correction property, auto design selection (also on
 * non-leading qubits), the paper's headline gate counts, and pinned
 * hashes of the fragments every design emits.
 */
#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include <gtest/gtest.h>

#include "algos/states.hpp"
#include "circuit/hash.hpp"
#include "common/error.hpp"
#include "core/asserted_program.hpp"
#include "core/runner.hpp"
#include "linalg/gram_schmidt.hpp"
#include "linalg/states.hpp"
#include "synth/state_prep.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

/** Prepare `psi` as the program and assert `set` with `design`. */
double
errorProbability(const CVector& program_state, const StateSet& set,
                 AssertionDesign design)
{
    AssertedProgram prog(prepareState(program_state));
    std::vector<int> qubits;
    for (int q = 0; q < prog.numProgramQubits(); ++q) qubits.push_back(q);
    prog.assertState(qubits, set, design);
    const AssertionOutcomeExact outcome = runAssertedExact(prog);
    return outcome.slot_error_prob[0];
}

class DesignTest : public ::testing::TestWithParam<AssertionDesign>
{};

TEST_P(DesignTest, CorrectPureStatePasses)
{
    Rng rng(300);
    for (int n : {1, 2, 3}) {
        CVector psi = randomState(n, rng);
        EXPECT_NEAR(errorProbability(psi, StateSet::pure(psi), GetParam()),
                    0.0, 1e-7)
            << "n = " << n;
    }
}

TEST_P(DesignTest, OrthogonalPureStateAlwaysFails)
{
    Rng rng(301);
    for (int n : {1, 2, 3}) {
        CVector psi = randomState(n, rng);
        auto basis = completeBasis({psi}, size_t(1) << n);
        EXPECT_NEAR(errorProbability(basis[1], StateSet::pure(psi),
                                     GetParam()),
                    1.0, 1e-7)
            << "n = " << n;
    }
}

TEST_P(DesignTest, WrongStateFailsWithOverlapProbability)
{
    // Error probability is exactly 1 - |<psi|phi>|^2 for pure assertion.
    Rng rng(302);
    for (int trial = 0; trial < 3; ++trial) {
        CVector asserted = randomState(2, rng);
        CVector actual = randomState(2, rng);
        const double overlap = fidelity(asserted, actual);
        EXPECT_NEAR(errorProbability(actual, StateSet::pure(asserted),
                                     GetParam()),
                    1.0 - overlap, 1e-7)
            << "trial " << trial;
    }
}

TEST_P(DesignTest, MemberOfApproximateSetPasses)
{
    // Membership: any state in the span passes, including combinations.
    std::vector<CVector> set = {CVector::basisState(8, 0),
                                CVector::basisState(8, 7)};
    EXPECT_NEAR(errorProbability(algos::ghzVector(3),
                                 StateSet::approximate(set), GetParam()),
                0.0, 1e-7);
    EXPECT_NEAR(errorProbability(CVector::basisState(8, 7),
                                 StateSet::approximate(set), GetParam()),
                0.0, 1e-7);
}

TEST_P(DesignTest, NonMemberOfApproximateSetFails)
{
    std::vector<CVector> set = {CVector::basisState(8, 0),
                                CVector::basisState(8, 7)};
    // |011> is orthogonal to the span: always caught.
    EXPECT_NEAR(errorProbability(CVector::basisState(8, 3),
                                 StateSet::approximate(set), GetParam()),
                1.0, 1e-7);
    // A half-in/half-out state is caught with probability 1/2.
    CVector half(8);
    half[0] = half[3] = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(errorProbability(half, StateSet::approximate(set),
                                 GetParam()),
                0.5, 1e-7);
}

TEST_P(DesignTest, RankRegimeSweep)
{
    // Every rank 1..2^n-1 must be assertable; states inside the subspace
    // pass, orthogonal states fail.
    const int n = 3;
    const size_t dim = 8;
    Rng rng(303);
    for (size_t t = 1; t < dim; ++t) {
        std::vector<CVector> seed;
        for (size_t i = 0; i < t; ++i) seed.push_back(randomState(n, rng));
        std::vector<CVector> basis = orthonormalize(seed);
        while (basis.size() < t) {
            basis.push_back(randomState(n, rng));
            basis = orthonormalize(basis);
        }
        const StateSet set = StateSet::approximate(basis);

        // A random superposition inside the subspace.
        CVector inside(dim);
        for (const CVector& b : basis) {
            inside += b * Complex(rng.normal(), rng.normal());
        }
        inside = inside.normalized();
        EXPECT_NEAR(errorProbability(inside, set, GetParam()), 0.0, 1e-6)
            << "t = " << t;

        // A state in the orthogonal complement.
        const std::vector<CVector> full = completeBasis(basis, dim);
        EXPECT_NEAR(errorProbability(full[t], set, GetParam()), 1.0, 1e-6)
            << "t = " << t;
    }
}

TEST_P(DesignTest, FullRankIsUnassertable)
{
    std::vector<CVector> everything;
    for (size_t i = 0; i < 4; ++i) {
        everything.push_back(CVector::basisState(4, i));
    }
    AssertedProgram prog(algos::bellPrep(algos::BellKind::kPhiPlus));
    EXPECT_THROW(prog.assertState({0, 1},
                                  StateSet::approximate(everything),
                                  GetParam()),
                 UserError);
}

TEST_P(DesignTest, NonDestructiveOnPass)
{
    // Asserting the correct state twice: the second assertion must also
    // pass with certainty (the state survived the first).
    Rng rng(304);
    CVector psi = randomState(2, rng);
    AssertedProgram prog(prepareState(psi));
    prog.assertState({0, 1}, StateSet::pure(psi), GetParam());
    prog.assertState({0, 1}, StateSet::pure(psi), GetParam());
    const AssertionOutcomeExact outcome = runAssertedExact(prog);
    EXPECT_NEAR(outcome.slot_error_prob[0], 0.0, 1e-7);
    EXPECT_NEAR(outcome.slot_error_prob[1], 0.0, 1e-7);
    EXPECT_NEAR(outcome.pass_prob, 1.0, 1e-7);
}

TEST_P(DesignTest, MixedAssertionPreservesEntanglement)
{
    // GHZ program; assert the reduced state of qubits (1, 2); then a
    // precise 3-qubit assertion must still pass: the entanglement with
    // qubit 0 survived the mixed assertion.
    const CVector ghz = algos::ghzVector(3);
    const CMatrix rho23 = partialTrace(densityFromPure(ghz), {1, 2});

    AssertedProgram prog(algos::ghzPrep(3));
    prog.assertState({1, 2}, StateSet::mixed(rho23), GetParam());
    prog.assertState({0, 1, 2}, StateSet::pure(ghz),
                     AssertionDesign::kSwap);
    const AssertionOutcomeExact outcome = runAssertedExact(prog);
    EXPECT_NEAR(outcome.slot_error_prob[0], 0.0, 1e-7);
    EXPECT_NEAR(outcome.slot_error_prob[1], 0.0, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignTest,
    ::testing::Values(AssertionDesign::kSwap, AssertionDesign::kOr,
                      AssertionDesign::kNdd, AssertionDesign::kProq),
    [](const ::testing::TestParamInfo<AssertionDesign>& param_info) {
        switch (param_info.param) {
          case AssertionDesign::kSwap: return "Swap";
          case AssertionDesign::kOr: return "Or";
          case AssertionDesign::kNdd: return "Ndd";
          case AssertionDesign::kProq: return "Proq";
          default: return "Other";
        }
    });

TEST(SwapPlacementTest, AllFourVariantsAgree)
{
    Rng rng(305);
    const CVector psi = randomState(2, rng);
    const CVector wrong = randomState(2, rng);
    const double expected = 1.0 - fidelity(psi, wrong);
    for (SwapPlacement placement :
         {SwapPlacement::kInvBeforePrepAfter,
          SwapPlacement::kInvBeforePrepBefore,
          SwapPlacement::kInvAfterPrepBefore,
          SwapPlacement::kInvAfterPrepAfter}) {
        AssertedProgram prog(prepareState(wrong));
        prog.assertState({0, 1}, StateSet::pure(psi),
                         AssertionDesign::kSwap, placement);
        const AssertionOutcomeExact outcome = runAssertedExact(prog);
        EXPECT_NEAR(outcome.slot_error_prob[0], expected, 1e-7);
    }
}

TEST(SwapPlacementTest, CorrectionProperty)
{
    // The SWAP design "corrects" the tested qubits to the asserted
    // state even when the assertion fails (Sec. IV-E contrast): a
    // follow-up assertion of the same state always passes.
    Rng rng(306);
    const CVector psi = randomState(2, rng);
    const CVector wrong = randomState(2, rng);
    AssertedProgram prog(prepareState(wrong));
    prog.assertState({0, 1}, StateSet::pure(psi), AssertionDesign::kSwap);
    prog.assertState({0, 1}, StateSet::pure(psi), AssertionDesign::kSwap);
    const AssertionOutcomeExact outcome = runAssertedExact(prog);
    EXPECT_GT(outcome.slot_error_prob[0], 0.1);
    EXPECT_NEAR(outcome.slot_error_prob[1], 0.0, 1e-7);
}

TEST(SwapPlacementTest, NddDoesNotCorrect)
{
    // NDD projects instead of replacing: after a failed NDD assertion
    // the state is the projection onto the incorrect subspace, so a
    // follow-up assertion fails deterministically on that branch.
    CVector psi = CVector::basisState(4, 0);
    CVector wrong(4);
    wrong[0] = std::sqrt(0.5);
    wrong[3] = std::sqrt(0.5);
    AssertedProgram prog(prepareState(wrong));
    prog.assertState({0, 1}, StateSet::pure(psi), AssertionDesign::kNdd);
    prog.assertState({0, 1}, StateSet::pure(psi), AssertionDesign::kNdd);
    const AssertionOutcomeExact outcome = runAssertedExact(prog);
    EXPECT_NEAR(outcome.slot_error_prob[0], 0.5, 1e-7);
    // Second slot errors exactly when the first did.
    EXPECT_NEAR(outcome.slot_error_prob[1], 0.5, 1e-7);
}

TEST(AutoSelectionTest, PicksCheapestDesign)
{
    const StateSet parity_set = StateSet::approximate(
        {algos::ghzVector(3),
         [] {
             CVector v(8);
             v[1] = v[6] = 1.0 / std::sqrt(2.0);
             return v;
         }(),
         [] {
             CVector v(8);
             v[2] = v[5] = 1.0 / std::sqrt(2.0);
             return v;
         }(),
         [] {
             CVector v(8);
             v[3] = v[4] = 1.0 / std::sqrt(2.0);
             return v;
         }()});

    AssertedProgram prog(algos::ghzPrep(3));
    prog.assertState({0, 1, 2}, parity_set, AssertionDesign::kAuto);
    const auto& slot = prog.slots()[0];
    // The parity set's NDD circuit costs 3 CX; nothing beats it.
    EXPECT_EQ(slot.design, AssertionDesign::kNdd);
    EXPECT_EQ(slot.cost.cx, 3);

    int best = estimateAssertionCost(parity_set, AssertionDesign::kSwap).cx;
    best = std::min(best,
                    estimateAssertionCost(parity_set,
                                          AssertionDesign::kOr).cx);
    EXPECT_LE(slot.cost.cx, best);
}

TEST(CostTest, PaperTableOneNumbers)
{
    const CVector ghz = algos::ghzVector(3);
    const CMatrix rho23 = partialTrace(densityFromPure(ghz), {1, 2});

    CircuitCost precise =
        estimateAssertionCost(StateSet::pure(ghz), AssertionDesign::kSwap);
    EXPECT_EQ(precise.cx, 10);
    EXPECT_EQ(precise.sg, 2);
    EXPECT_EQ(precise.ancilla, 3);
    EXPECT_EQ(precise.measure, 3);

    CircuitCost mixed = estimateAssertionCost(StateSet::mixed(rho23),
                                              AssertionDesign::kSwap);
    EXPECT_EQ(mixed.cx, 4);
    EXPECT_EQ(mixed.sg, 0);
    EXPECT_EQ(mixed.ancilla, 1);
    EXPECT_EQ(mixed.measure, 1);

    CircuitCost approx2 = estimateAssertionCost(
        StateSet::approximate(
            {CVector::basisState(8, 0), CVector::basisState(8, 7)}),
        AssertionDesign::kSwap);
    EXPECT_EQ(approx2.cx, 8);

    CircuitCost approx4 = estimateAssertionCost(
        StateSet::approximate(
            {CVector::basisState(8, 0), CVector::basisState(8, 3),
             CVector::basisState(8, 4), CVector::basisState(8, 7)}),
        AssertionDesign::kSwap);
    EXPECT_EQ(approx4.cx, 4);

    CircuitCost proq =
        estimateAssertionCost(StateSet::pure(ghz), AssertionDesign::kProq);
    EXPECT_EQ(proq.cx, 4);
    EXPECT_EQ(proq.sg, 2);
    EXPECT_EQ(proq.ancilla, 0);
    EXPECT_EQ(proq.measure, 3);
}

TEST(AssertedProgramTest, SlotBookkeeping)
{
    AssertedProgram prog(algos::ghzPrep(3));
    const int s0 = prog.assertState({0, 1, 2},
                                    StateSet::pure(algos::ghzVector(3)),
                                    AssertionDesign::kSwap);
    const int s1 = prog.assertState(
        {1, 2},
        StateSet::mixed(partialTrace(
            densityFromPure(algos::ghzVector(3)), {1, 2})),
        AssertionDesign::kSwap);
    prog.measureProgram();

    EXPECT_EQ(s0, 0);
    EXPECT_EQ(s1, 1);
    ASSERT_EQ(prog.slots().size(), 2u);
    EXPECT_EQ(prog.slots()[0].ancillas.size(), 3u);
    EXPECT_EQ(prog.slots()[1].ancillas.size(), 1u);
    EXPECT_EQ(prog.programClbits().size(), 3u);
    EXPECT_EQ(prog.assertionClbits().size(), 4u);

    // All clbits distinct.
    std::vector<int> all = prog.assertionClbits();
    all.insert(all.end(), prog.programClbits().begin(),
               prog.programClbits().end());
    std::sort(all.begin(), all.end());
    EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
}

TEST(AssertedProgramTest, Validation)
{
    AssertedProgram prog(algos::ghzPrep(3));
    EXPECT_THROW(prog.assertState({0}, StateSet::pure(algos::ghzVector(3))),
                 UserError);
    EXPECT_THROW(prog.assertState({0, 1, 5},
                                  StateSet::pure(algos::ghzVector(3))),
                 UserError);

    QuantumCircuit measured(1, 1);
    measured.measure(0, 0);
    EXPECT_THROW(AssertedProgram{measured}, UserError);
}

TEST(AssertedProgramTest, PostSelectionFiltersErrors)
{
    // Program in superposition of correct/incorrect: post-selected
    // program counts contain only the asserted state.
    CVector half(4);
    half[0] = half[1] = 1.0 / std::sqrt(2.0); // (|00> + |01>)/sqrt2
    AssertedProgram prog(prepareState(half));
    prog.assertState({0, 1}, StateSet::pure(CVector::basisState(4, 0)),
                     AssertionDesign::kSwap);
    prog.measureProgram();
    const AssertionOutcomeExact outcome = runAssertedExact(prog);
    EXPECT_NEAR(outcome.slot_error_prob[0], 0.5, 1e-7);
    EXPECT_NEAR(outcome.program_dist_passed.probability("00"), 0.5, 1e-7);
    EXPECT_NEAR(outcome.program_dist_passed.probability("01"), 0.0, 1e-7);
}

TEST(AssertedProgramTest, SampledRunAgreesWithExact)
{
    AssertedProgram prog(algos::ghzPrep(3, /*bug=*/2));
    prog.assertState({0, 1, 2}, StateSet::pure(algos::ghzVector(3)),
                     AssertionDesign::kSwap);
    prog.measureProgram();

    const AssertionOutcomeExact exact = runAssertedExact(prog);
    SimOptions options;
    options.shots = 20000;
    options.seed = 424242;
    const AssertionOutcome sampled = runAsserted(prog, options);
    EXPECT_NEAR(sampled.slot_error_rate[0], exact.slot_error_prob[0],
                0.02);
    EXPECT_NEAR(sampled.pass_rate, exact.pass_prob, 0.02);
}

/** A random u3 + cx program on `width` qubits. */
QuantumCircuit
randomProgram(int width, Rng& rng)
{
    QuantumCircuit program(width);
    for (int layer = 0; layer < 3; ++layer) {
        for (int q = 0; q < width; ++q) {
            program.u3(q, rng.uniform(0, M_PI), rng.uniform(0, 2 * M_PI),
                       rng.uniform(0, 2 * M_PI));
        }
        const int c = int(rng.index(width));
        program.cx(c, (c + 1 + int(rng.index(width - 1))) % width);
    }
    return program;
}

/** Sets of every assertable rank over `n` qubits, in three kinds. */
std::vector<std::pair<std::string, StateSet>>
setsOfEveryRank(int n, Rng& rng)
{
    const size_t dim = size_t(1) << n;
    std::vector<std::pair<std::string, StateSet>> sets;
    sets.emplace_back("pure", StateSet::pure(randomState(n, rng)));
    for (size_t t = 2; t < dim; ++t) {
        const std::string rank = " rank " + std::to_string(t);
        std::vector<CVector> members;
        CMatrix rho(dim, dim);
        for (size_t i = 0; i < t; ++i) {
            members.push_back(randomState(n, rng));
            rho = rho + densityFromPure(members.back()) *
                            Complex(rng.uniform(0.5, 1.5), 0.0);
        }
        sets.emplace_back("approximate" + rank,
                          StateSet::approximate(members));
        sets.emplace_back(
            "mixed" + rank,
            StateSet::mixed(rho * Complex(1.0 / rho.trace().real(), 0.0)));
        // Computational basis states take the affine basis changes.
        std::vector<size_t> order(dim);
        std::iota(order.begin(), order.end(), 0);
        for (size_t i = dim - 1; i > 0; --i) {
            std::swap(order[i], order[rng.index(i + 1)]);
        }
        std::vector<CVector> basis_states;
        for (size_t i = 0; i < t; ++i) {
            basis_states.push_back(CVector::basisState(dim, order[i]));
        }
        sets.emplace_back("basis-state" + rank,
                          StateSet::approximate(basis_states));
    }
    return sets;
}

TEST(AutoSelectionTest, NonLeadingQubitsCostOnTheirOwnLayout)
{
    // kAuto must cost each design on the qubits it will assert, with the
    // program's untested qubits borrowable, and insert the cheapest:
    // the (cx, then sg) minimum over explicit SWAP, OR and NDD
    // insertions on the same program and qubits.
    Rng rng(2323);
    for (int trial = 0; trial < 8; ++trial) {
        const int width = 3 + int(rng.index(3));
        const QuantumCircuit program = randomProgram(width, rng);
        std::vector<int> qubits;
        while (qubits.empty()) {
            for (int q = 0; q < width; ++q) {
                if (rng.uniform() < 0.6 && qubits.size() < 3) {
                    qubits.push_back(q);
                }
            }
        }
        for (const auto& [label, set] :
             setsOfEveryRank(int(qubits.size()), rng)) {
            std::ostringstream where;
            where << label << " on qubits";
            for (int q : qubits) where << " " << q;
            where << " of " << width;

            AssertionDesign expected = AssertionDesign::kAuto;
            CircuitCost expected_cost;
            for (AssertionDesign design :
                 {AssertionDesign::kSwap, AssertionDesign::kOr,
                  AssertionDesign::kNdd}) {
                AssertedProgram prog(program);
                prog.assertState(qubits, set, design);
                const CircuitCost cost = prog.slots()[0].cost;
                if (expected == AssertionDesign::kAuto ||
                    cost.cx < expected_cost.cx ||
                    (cost.cx == expected_cost.cx &&
                     cost.sg < expected_cost.sg)) {
                    expected = design;
                    expected_cost = cost;
                }
            }

            AssertedProgram prog(program);
            ASSERT_NO_THROW(
                prog.assertState(qubits, set, AssertionDesign::kAuto))
                << where.str();
            const AssertedProgram::Slot& slot = prog.slots()[0];
            EXPECT_EQ(slot.design, expected) << where.str();
            EXPECT_EQ(slot.cost.cx, expected_cost.cx) << where.str();
            EXPECT_EQ(slot.cost.sg, expected_cost.sg) << where.str();
            EXPECT_EQ(slot.cost.ancilla, expected_cost.ancilla)
                << where.str();
            EXPECT_EQ(slot.cost.measure, expected_cost.measure)
                << where.str();
        }
    }
}

/** A superposition of computational basis states with equal weights. */
CVector
evenSuperposition(int n, std::initializer_list<size_t> indices)
{
    CVector v(size_t(1) << n);
    for (size_t i : indices) v[i] = 1.0;
    return v.normalized();
}

/** One subspace per rank regime the builders split differently. */
std::vector<std::pair<const char*, CorrectSubspace>>
pinnedSubspaces()
{
    const CMatrix mixed = densityFromPure(algos::ghzVector(3)) *
                              Complex(0.6, 0.0) +
                          densityFromPure(algos::wVector(3)) *
                              Complex(0.4, 0.0);
    return {
        {"pure m=0", analyzeStateSet(StateSet::pure(algos::ghzVector(3)))},
        {"affine m>0", analyzeStateSet(StateSet::approximate(
                           {CVector::basisState(8, 0),
                            CVector::basisState(8, 7)}))},
        {"between", analyzeStateSet(StateSet::approximate(
                        {CVector::basisState(8, 0),
                         CVector::basisState(8, 3),
                         evenSuperposition(3, {5, 6})}))},
        {"large", analyzeStateSet(StateSet::approximate(
                      {CVector::basisState(4, 0),
                       evenSuperposition(2, {1, 2}),
                       evenSuperposition(2, {0, 3})}))},
        {"non-affine", analyzeStateSet(StateSet::mixed(mixed))},
    };
}

TEST(BuilderTest, FragmentsMatchPinnedHashes)
{
    // circuitHash of buildAssertion's fragment for every design on every
    // regime, laid out bare (tested qubits 0..n-1, no borrowable qubit)
    // and interleaved (tested qubits 1, 3, ... of a 2n-qubit program,
    // so the even ones are borrowable, clbits from 1). The values come
    // from the per-design builders the shared rank-regime split replaced
    // and are the same with and without the SIMD kernels. A change to
    // the order in which a regime's parts take their ancillas or clbits
    // moves these pins.
    struct Column
    {
        AssertionDesign design;
        SwapPlacement placement;
    };
    const Column columns[] = {
        {AssertionDesign::kSwap, SwapPlacement::kInvBeforePrepAfter},
        {AssertionDesign::kSwap, SwapPlacement::kInvBeforePrepBefore},
        {AssertionDesign::kSwap, SwapPlacement::kInvAfterPrepBefore},
        {AssertionDesign::kSwap, SwapPlacement::kInvAfterPrepAfter},
        {AssertionDesign::kOr, SwapPlacement::kInvBeforePrepAfter},
        {AssertionDesign::kNdd, SwapPlacement::kInvBeforePrepAfter},
        {AssertionDesign::kProq, SwapPlacement::kInvBeforePrepAfter},
    };
    const char* const kPins[10][7] = {
        // pure m=0 bare
        {"474bd414142fa4eabd6f32d291cdd205", "276852291c796a9ec4c27c80da769ec1",
         "3cd0e789f3fe97f518e59c72a2669d43", "d626ae99c6c4a21cc9af4138e7796b67",
         "af321306dec865ad8b977ca695ff59b3", "ca5e4dd295f169674dc7dd12bee167dc",
         "3075f065f91b822b2890fef89aced72f"},
        // pure m=0 interleaved
        {"dfab5f42ea27de5d64ca19b0e3df94b4", "6fe979655d88bf8d69526ae6461c74b2",
         "19baec4939b417699c61156311e1ff79", "8b7071ab43ea9a061753711fe13be6b2",
         "bed8afe20db82b0b97d6c0bf245e2b8e", "76d6048ddb849b0ef3f501e3dc164abc",
         "f77c7f8b87e483e57aba1c88ac9ab149"},
        // affine m>0 bare
        {"7d939b431e79e0986113142c19ac9b9b", "7d939b431e79e0986113142c19ac9b9b",
         "7d939b431e79e0986113142c19ac9b9b", "7d939b431e79e0986113142c19ac9b9b",
         "25016d781fb87f4d9b988a02689a7d6c", "aea5df339503d44607912fd1ee3e9180",
         "59ef59d2fbfe5d011a24568eab8fba64"},
        // affine m>0 interleaved
        {"991969349e21f9e1672d8788e0440f00", "991969349e21f9e1672d8788e0440f00",
         "991969349e21f9e1672d8788e0440f00", "991969349e21f9e1672d8788e0440f00",
         "1f12eaf5407f3f5cc64af30964919c28", "f6c9100c50111aeb197316251fe46d61",
         "4283ea4bfa854f311729b2fab768fa08"},
        // between bare
        {"0aa630ad1aef31a10bebcf10b96a11c0", "0aa630ad1aef31a10bebcf10b96a11c0",
         "0aa630ad1aef31a10bebcf10b96a11c0", "0aa630ad1aef31a10bebcf10b96a11c0",
         "ba4356e752a64dd885497b2123216992", "fa7cc77c0a2bad9a34809f3657540e02",
         "9950d8867a644bb1108c47f585295ae7"},
        // between interleaved
        {"5096d890c6fc633ac7a9d19d7abc2ebb", "5096d890c6fc633ac7a9d19d7abc2ebb",
         "5096d890c6fc633ac7a9d19d7abc2ebb", "5096d890c6fc633ac7a9d19d7abc2ebb",
         "2b29f2bdc2a3ad2f2c7ba804f609984c", "86ee5029e199b09b6503775265fb771c",
         "8c604b2a67076e4d6c825f01e90ce6dc"},
        // large bare
        {"5cffdc34d2fe2f965a5f84380338aff0", "5cffdc34d2fe2f965a5f84380338aff0",
         "5cffdc34d2fe2f965a5f84380338aff0", "5cffdc34d2fe2f965a5f84380338aff0",
         "94a92d6e16d7cf0b1d4c3e4846a2fc2f", "fda085cfa88079df2ca45125e16b8338",
         "18359894025b025de86e93d4f5965278"},
        // large interleaved
        {"2ca88258b4b519deba2898eff3aa494c", "2ca88258b4b519deba2898eff3aa494c",
         "2ca88258b4b519deba2898eff3aa494c", "2ca88258b4b519deba2898eff3aa494c",
         "5b6bb46f00d0f3d3a35393d6ceb1fcfa", "7611112991a3ddde6a8dd6524830e176",
         "c3eef205864258fb88b35d13545e575b"},
        // non-affine bare
        {"c919671304a3f1a9709d469e3b4351eb", "c919671304a3f1a9709d469e3b4351eb",
         "c919671304a3f1a9709d469e3b4351eb", "c919671304a3f1a9709d469e3b4351eb",
         "b828da00cd111ccca8cb5d8b54925a6c", "0333984799500790a9a019bdfaa0c9c9",
         "09319079b901c8edc5ab5668dfd59078"},
        // non-affine interleaved
        {"9c3d429d7dc62110908be0520651a48c", "9c3d429d7dc62110908be0520651a48c",
         "9c3d429d7dc62110908be0520651a48c", "9c3d429d7dc62110908be0520651a48c",
         "253afccfcd644a60b031640ebb311a7e", "755bda0aa8cefac417af9b12e45dfc88",
         "40266f12294caf944b0678164cb7db3b"},
    };

    const auto subspaces = pinnedSubspaces();
    for (size_t s = 0; s < subspaces.size(); ++s) {
        const auto& [label, subspace] = subspaces[s];
        const int n = subspace.n;
        for (int borrow = 0; borrow < 2; ++borrow) {
            const int width = borrow ? 2 * n : n;
            const int first_clbit = borrow;
            std::vector<int> qubits;
            for (int i = 0; i < n; ++i) {
                qubits.push_back(borrow ? 2 * i + 1 : i);
            }
            for (size_t c = 0; c < std::size(columns); ++c) {
                const AssertionPlan plan =
                    planAssertion(subspace, columns[c].design);
                std::vector<int> ancillas(plan.num_ancillas);
                std::vector<int> clbits(plan.num_clbits);
                std::iota(ancillas.begin(), ancillas.end(), width);
                std::iota(clbits.begin(), clbits.end(), first_clbit);
                const BuildContext ctx = slotContext(
                    width + plan.num_ancillas, first_clbit + plan.num_clbits,
                    width, qubits, ancillas, clbits);
                const QuantumCircuit frag =
                    buildAssertion(subspace, columns[c].design,
                                   columns[c].placement, ctx);
                EXPECT_EQ(circuitHash(frag).str(), kPins[2 * s + borrow][c])
                    << label << (borrow ? " interleaved " : " bare ")
                    << designName(columns[c].design) << " column " << c;
            }
        }
    }
}

} // namespace
} // namespace qa
