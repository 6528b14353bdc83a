#include "core/runner.hpp"

#include <algorithm>

#include "backend/backend.hpp"
#include "common/error.hpp"
#include "sim/density.hpp"
#include "sim/engine.hpp"

namespace qa
{

namespace
{

/** True if every listed clbit reads '0' in the bitstring. */
bool
allZero(const std::string& bits, const std::vector<int>& clbits)
{
    for (int c : clbits) {
        if (bits[c] != '0') return false;
    }
    return true;
}

/** Restrict a raw bitstring to the program clbits, in order. */
std::string
programBits(const std::string& bits, const std::vector<int>& prog_bits)
{
    std::string reduced;
    reduced.reserve(prog_bits.size());
    for (int c : prog_bits) reduced.push_back(bits[c]);
    return reduced;
}

} // namespace

AssertionOutcome
runAsserted(const AssertedProgram& program, const SimOptions& options)
{
    AssertionOutcome outcome;
    outcome.raw = runShots(program.circuit(), options);

    for (const AssertedProgram::Slot& slot : program.slots()) {
        outcome.slot_error_rate.push_back(outcome.raw.fraction(
            [&](const std::string& bits) {
                return !allZero(bits, slot.clbits);
            }));
    }
    const std::vector<int> assertion_bits = program.assertionClbits();
    outcome.pass_rate = outcome.raw.fractionAllZero(assertion_bits);

    const std::vector<int>& prog_bits = program.programClbits();
    outcome.program_counts = marginalCounts(outcome.raw, prog_bits);

    outcome.program_counts_passed = marginalCounts(
        filterCounts(outcome.raw,
                     [&](const std::string& bits) {
                         return allZero(bits, assertion_bits);
                     }),
        prog_bits);
    return outcome;
}

AssertionOutcomeExact
runAssertedExact(const AssertedProgram& program, const NoiseModel* noise)
{
    AssertionOutcomeExact outcome;
    outcome.raw = noise != nullptr && noise->enabled()
                      ? exactDistributionDM(program.circuit(), noise)
                      : exactDistribution(program.circuit());

    for (const AssertedProgram::Slot& slot : program.slots()) {
        outcome.slot_error_prob.push_back(outcome.raw.mass(
            [&](const std::string& bits) {
                return !allZero(bits, slot.clbits);
            }));
    }
    const std::vector<int> assertion_bits = program.assertionClbits();
    outcome.pass_prob = outcome.raw.allZero(assertion_bits);

    const std::vector<int>& prog_bits = program.programClbits();
    outcome.program_dist = marginalDistribution(outcome.raw, prog_bits);

    Distribution passed;
    for (const auto& [bits, p] : outcome.raw.probs) {
        if (!allZero(bits, assertion_bits)) continue;
        passed.probs[programBits(bits, prog_bits)] += p;
    }
    outcome.program_dist_passed = std::move(passed);
    return outcome;
}

const char*
policyName(AssertionPolicy policy)
{
    switch (policy) {
      case AssertionPolicy::kAbort:   return "abort";
      case AssertionPolicy::kDiscard: return "discard";
      case AssertionPolicy::kRetry:   return "retry";
      case AssertionPolicy::kRepair:  return "repair";
    }
    return "unknown";
}

PolicyJob
policyJob(const AssertedProgram& program)
{
    PolicyJob job;
    job.variants = {&program.circuit()};
    job.program_clbits = program.programClbits();
    job.repair_supported = true;
    for (const AssertedProgram::Slot& slot : program.slots()) {
        job.slot_clbits.push_back(slot.clbits);
        job.repair_supported &= slot.design == AssertionDesign::kSwap;
    }
    return job;
}

PolicyOutcome
runPolicy(const PolicyJob& job, const backend::Route& first,
          const SimOptions& options, const PolicyOptions& popts)
{
    QA_REQUIRE(!job.variants.empty(), "need at least one circuit variant");
    QA_REQUIRE(options.shots > 0, "need a positive shot count");
    QA_REQUIRE(popts.max_attempts >= 1, "max_attempts must be >= 1");
    QA_REQUIRE_CODE(popts.policy != AssertionPolicy::kRepair ||
                        job.repair_supported,
                    ErrorCode::kPolicyUnsupported,
                    "repair policy requires slots that restore the "
                    "asserted state (SWAP-based designs) on every "
                    "variant");
    const QuantumCircuit& base = *job.variants[0];
    for (const QuantumCircuit* variant : job.variants) {
        QA_REQUIRE(variant->numQubits() == base.numQubits() &&
                       variant->numClbits() == base.numClbits(),
                   "circuit variants must share the register layout");
    }

    // Variant 0 runs where it was routed; the others are prepared on
    // the same backend, each analyzed once for its capability check and
    // its prepare.
    const BackendKind kind = first.choice.backend;
    std::vector<std::shared_ptr<const backend::PreparedCircuit>> prepared;
    prepared.push_back(backend::prepareRouted(base, options, first));
    for (size_t v = 1; v < job.variants.size(); ++v) {
        const QuantumCircuit& variant = *job.variants[v];
        const backend::CircuitAnalysis analysis =
            backend::analyzeForRouting(variant, options);
        const std::string gap =
            backend::capabilityGap(kind, analysis, options);
        QA_REQUIRE_CODE(gap.empty(), ErrorCode::kBadRequest,
                        std::string(backendName(kind)) +
                            " backend cannot run circuit variant " +
                            std::to_string(v) + ": " + gap);
        prepared.push_back(
            backend::backendFor(kind).prepare(variant, options, analysis));
    }

    backend::ShotRules rules;
    rules.slot_clbits = job.slot_clbits;
    rules.attempts = popts.policy == AssertionPolicy::kRetry
                         ? popts.max_attempts
                         : 1;
    rules.keep_flagged = popts.policy == AssertionPolicy::kRepair;
    rules.stop_on_flag = popts.policy == AssertionPolicy::kAbort;
    std::vector<const backend::PreparedCircuit*> variants;
    for (const auto& p : prepared) variants.push_back(p.get());
    backend::ShotTally tally = backend::runShotLoop(variants, rules, options);

    PolicyOutcome out;
    out.policy = popts.policy;
    out.backend = first.choice;
    for (const auto& p : prepared) {
        out.mps_truncation_error =
            std::max(out.mps_truncation_error, p->truncationError());
    }
    out.shots_requested = options.shots;
    out.shots_completed = tally.completed;
    out.shots_accepted = tally.kept.shots;
    out.truncated = tally.kept.truncated;
    out.retries = int(tally.retries);
    // Each policy drops (or keeps) flagged shots in one way only, so the
    // counts below follow from completed, accepted and passed shots.
    const int flagged_out = out.shots_completed - out.shots_accepted;
    switch (popts.policy) {
      case AssertionPolicy::kAbort:
        out.aborted = flagged_out > 0;
        if (out.aborted) out.abort_shot = out.shots_completed - 1;
        break;
      case AssertionPolicy::kRetry:
        out.exhausted = flagged_out;
        break;
      case AssertionPolicy::kRepair:
        out.repaired = out.shots_completed - int(tally.passed);
        break;
      case AssertionPolicy::kDiscard:
        break;
    }
    out.slot_error_rate.assign(job.slot_clbits.size(), 0.0);
    if (tally.completed > 0) {
        for (size_t i = 0; i < job.slot_clbits.size(); ++i) {
            out.slot_error_rate[i] = double(tally.slot_errors[i]) /
                                     double(tally.completed);
        }
        out.pass_rate = double(tally.passed) / double(tally.completed);
    }

    // A program-clbit list naming every clbit in order (plain circuits)
    // marginalizes to the raw histogram itself.
    bool identity = int(job.program_clbits.size()) == base.numClbits();
    for (size_t i = 0; identity && i < job.program_clbits.size(); ++i) {
        identity = job.program_clbits[i] == int(i);
    }
    out.program_counts = identity
                             ? tally.kept
                             : marginalCounts(tally.kept, job.program_clbits);
    out.raw = std::move(tally.kept);
    return out;
}

PolicyOutcome
runAssertedPolicy(const AssertedProgram& program, const SimOptions& options,
                  const PolicyOptions& popts)
{
    return runPolicy(policyJob(program),
                     backend::route(program.circuit(), options), options,
                     popts);
}

} // namespace qa
