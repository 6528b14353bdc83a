/**
 * @file
 * Tests for the assertion recovery policies (discard / repair), their
 * agreement with the post-selected runAsserted histogram, their
 * determinism across thread counts, and deadline-based truncation of
 * policy runs.
 */
#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "algos/states.hpp"
#include "common/error.hpp"
#include "core/runner.hpp"
#include "linalg/states.hpp"
#include "synth/state_prep.hpp"

namespace qa
{
namespace
{

using namespace algos;

/** |1> program asserting |0> with SWAP: every shot flags, and the slot
 *  re-prepares |0> on the program qubit. */
AssertedProgram
alwaysFailingSwapProgram()
{
    AssertedProgram prog(prepareState(CVector::basisState(2, 1)));
    prog.assertState({0}, StateSet::pure(CVector::basisState(2, 0)),
                     AssertionDesign::kSwap);
    prog.measureProgram();
    return prog;
}

/** |+> program asserting |0> with `design`: each shot flags w.p. 1/2. */
AssertedProgram
coinFlipProgram(AssertionDesign design)
{
    QuantumCircuit qc(1);
    qc.h(0);
    AssertedProgram prog(qc);
    prog.assertState({0}, StateSet::pure(CVector::basisState(2, 0)),
                     design);
    prog.measureProgram();
    return prog;
}

/** Accepted shots that flagged a slot: 0 under discard, the flagged
 *  shots under repair. */
long
acceptedFlagged(const PolicyOutcome& out)
{
    return out.program_counts.shots -
           std::lround(out.pass_rate * double(out.raw.shots));
}

TEST(PolicyTest, PolicyNamesAreStable)
{
    EXPECT_STREQ(policyName(AssertionPolicy::kDiscard), "discard");
    EXPECT_STREQ(policyName(AssertionPolicy::kRepair), "repair");
}

TEST(PolicyTest, DiscardMatchesPostSelection)
{
    // Both policies draw the same per-shot RNG streams as the plain
    // runner and report every shot in `raw`: kDiscard's accepted
    // histogram is the post-selected one, and kRepair's is the whole
    // unfiltered one.
    const AssertedProgram prog = coinFlipProgram(AssertionDesign::kNdd);
    const AssertedProgram swap = coinFlipProgram(AssertionDesign::kSwap);
    SimOptions options;
    options.shots = 400;
    options.seed = 99;

    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        options.num_threads = threads;
        const AssertionOutcome plain = runAsserted(prog, options);
        PolicyOptions popts;
        popts.policy = AssertionPolicy::kDiscard;
        const PolicyOutcome out = runAssertedPolicy(prog, options, popts);

        EXPECT_EQ(out.program_counts.map, plain.program_counts_passed.map);
        EXPECT_EQ(out.raw.map, plain.raw.map);
        EXPECT_EQ(out.raw.shots, options.shots);
        EXPECT_EQ(out.program_counts.shots,
                  plain.program_counts_passed.shots);
        EXPECT_EQ(acceptedFlagged(out), 0);
        EXPECT_FALSE(out.truncated);
        ASSERT_EQ(out.slot_error_rate.size(), 1u);
        EXPECT_NEAR(out.slot_error_rate[0], plain.slot_error_rate[0],
                    1e-12);

        const AssertionOutcome swap_plain = runAsserted(swap, options);
        popts.policy = AssertionPolicy::kRepair;
        const PolicyOutcome repair = runAssertedPolicy(swap, options, popts);
        EXPECT_EQ(repair.raw.map, swap_plain.raw.map);
        EXPECT_EQ(repair.raw.shots, swap_plain.raw.shots);
        EXPECT_EQ(repair.program_counts.map,
                  swap_plain.program_counts.map);
        EXPECT_EQ(repair.program_counts.shots, options.shots);
        EXPECT_EQ(repair.raw.shots, options.shots);
        EXPECT_EQ(repair.slot_error_rate, swap_plain.slot_error_rate);
        EXPECT_EQ(repair.pass_rate, swap_plain.pass_rate);
        EXPECT_EQ(acceptedFlagged(repair),
                  options.shots - swap_plain.program_counts_passed.shots);
        EXPECT_GT(acceptedFlagged(repair), 0);
    }
}

TEST(PolicyTest, RepairKeepsFlaggedShotsWithRestoredState)
{
    const AssertedProgram prog = alwaysFailingSwapProgram();
    SimOptions options;
    options.shots = 300;
    options.seed = 7;
    PolicyOptions popts;
    popts.policy = AssertionPolicy::kRepair;
    const PolicyOutcome out = runAssertedPolicy(prog, options, popts);

    EXPECT_EQ(out.raw.shots, options.shots);
    EXPECT_EQ(out.program_counts.shots, options.shots);
    EXPECT_EQ(acceptedFlagged(out), options.shots);
    EXPECT_NEAR(out.slot_error_rate[0], 1.0, 1e-12);
    EXPECT_NEAR(out.pass_rate, 0.0, 1e-12);
    // The SWAP slot re-prepared |0> on the program qubit, so the kept
    // (repaired) shots all read 0 despite every slot flagging.
    EXPECT_EQ(int(out.program_counts.map.at("0")), options.shots);
}

TEST(PolicyTest, RepairRequiresSwapDesign)
{
    QuantumCircuit qc(1);
    qc.h(0);
    AssertedProgram prog(qc);
    prog.assertState({0}, StateSet::pure(CVector::basisState(2, 0)),
                     AssertionDesign::kNdd);
    prog.measureProgram();
    SimOptions options;
    options.shots = 10;
    PolicyOptions popts;
    popts.policy = AssertionPolicy::kRepair;
    try {
        runAssertedPolicy(prog, options, popts);
        FAIL() << "expected kPolicyUnsupported";
    } catch (const UserError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kPolicyUnsupported);
        EXPECT_NE(std::string(e.what()).find("repair"),
                  std::string::npos);
    }
}

TEST(PolicyTest, PolicyRunsAreThreadCountInvariant)
{
    SimOptions options;
    options.shots = 1000;
    options.seed = 1234;

    const std::pair<AssertionDesign, AssertionPolicy> runs[] = {
        {AssertionDesign::kNdd, AssertionPolicy::kDiscard},
        {AssertionDesign::kSwap, AssertionPolicy::kRepair}};
    for (const auto& [design, policy] : runs) {
        const AssertedProgram prog = coinFlipProgram(design);
        PolicyOptions popts;
        popts.policy = policy;

        options.num_threads = 1;
        const PolicyOutcome serial =
            runAssertedPolicy(prog, options, popts);
        options.num_threads = 4;
        const PolicyOutcome four = runAssertedPolicy(prog, options, popts);
        options.num_threads = 0;
        const PolicyOutcome hw = runAssertedPolicy(prog, options, popts);

        for (const PolicyOutcome* other : {&four, &hw}) {
            EXPECT_EQ(serial.raw.map, other->raw.map);
            EXPECT_EQ(serial.program_counts.map,
                      other->program_counts.map);
            EXPECT_EQ(serial.slot_error_rate, other->slot_error_rate);
            EXPECT_EQ(serial.raw.shots, other->raw.shots);
            EXPECT_EQ(serial.program_counts.shots,
                      other->program_counts.shots);
            EXPECT_EQ(acceptedFlagged(serial), acceptedFlagged(*other));
            EXPECT_EQ(serial.pass_rate, other->pass_rate);
        }
    }
}

TEST(PolicyTest, ExpiredDeadlineTruncatesWithoutAborting)
{
    // A deadline that expires immediately: the run returns partial (here
    // empty-to-partial) counts flagged truncated, with all workers
    // joined, instead of throwing or running every shot.
    AssertedProgram prog(ghzPrep(8));
    prog.assertState({0, 1, 2, 3, 4, 5, 6, 7},
                     StateSet::pure(ghzVector(8)),
                     AssertionDesign::kSwap);
    prog.measureProgram();
    SimOptions options;
    options.shots = 200000;
    options.seed = 3;
    options.num_threads = 2;
    options.deadline_ms = 1e-6;
    PolicyOptions popts;
    popts.policy = AssertionPolicy::kDiscard;
    const PolicyOutcome out = runAssertedPolicy(prog, options, popts);

    EXPECT_TRUE(out.truncated);
    EXPECT_LT(out.raw.shots, options.shots);
    EXPECT_EQ(acceptedFlagged(out), 0);
    EXPECT_TRUE(out.program_counts.truncated);
    // The histograms are valid samples of whatever completed.
    int total = 0;
    for (const auto& [bits, n] : out.program_counts.map) total += n;
    EXPECT_EQ(total, out.program_counts.shots);
    total = 0;
    for (const auto& [bits, n] : out.raw.map) total += n;
    EXPECT_EQ(total, out.raw.shots);
}

TEST(PolicyTest, InvalidPolicyOptionsAreRejected)
{
    const AssertedProgram prog = coinFlipProgram(AssertionDesign::kNdd);
    SimOptions options;
    options.shots = 0;
    EXPECT_THROW(runAssertedPolicy(prog, options, PolicyOptions{}),
                 UserError);
}

} // namespace
} // namespace qa
