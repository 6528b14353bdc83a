#include "core/runner.hpp"

#include "backend/backend.hpp"
#include "common/error.hpp"
#include "sim/exact.hpp"

namespace qa
{

namespace
{

/** True when some bit of `slot` reads '1' in `bits`: the slot flagged. */
bool
flags(const std::string& bits, const std::vector<int>& slot)
{
    for (int c : slot) {
        if (bits[size_t(c)] != '0') return true;
    }
    return false;
}

/** True when no slot flags in `bits`. */
bool
passes(const std::string& bits, const std::vector<std::vector<int>>& slots)
{
    for (const std::vector<int>& slot : slots) {
        if (flags(bits, slot)) return false;
    }
    return true;
}

/**
 * `counts` restricted to `clbits`: a list naming every clbit in order
 * (plain circuits) marginalizes to the histogram itself.
 */
Counts
programMarginal(const Counts& counts, const std::vector<int>& clbits)
{
    bool identity = counts.map.empty() ||
                    clbits.size() == counts.map.begin()->first.size();
    for (size_t i = 0; identity && i < clbits.size(); ++i) {
        identity = clbits[i] == int(i);
    }
    return identity ? counts : marginalCounts(counts, clbits);
}

} // namespace

PostSelection
postSelect(Counts all, const std::vector<std::vector<int>>& slot_clbits,
           const std::vector<int>& program_clbits)
{
    const int shots = all.shots;
    std::vector<long> flagged(slot_clbits.size(), 0);
    for (auto it = all.map.begin(); it != all.map.end();) {
        bool any = false;
        for (size_t i = 0; i < slot_clbits.size(); ++i) {
            if (flags(it->first, slot_clbits[i])) {
                flagged[i] += it->second;
                any = true;
            }
        }
        if (any) {
            all.shots -= it->second;
            it = all.map.erase(it);
        } else {
            ++it;
        }
    }

    PostSelection out;
    out.slot_error_rate.assign(slot_clbits.size(), 0.0);
    if (shots > 0) {
        for (size_t i = 0; i < slot_clbits.size(); ++i) {
            out.slot_error_rate[i] = double(flagged[i]) / double(shots);
        }
        out.pass_rate = double(all.shots) / double(shots);
    }
    out.program_passed = programMarginal(all, program_clbits);
    out.passed = std::move(all);
    return out;
}

AssertionOutcome
runAsserted(const AssertedProgram& program, const SimOptions& options)
{
    const PolicyJob job = policyJob(program);
    AssertionOutcome outcome;
    outcome.raw = runShots(program.circuit(), options);
    outcome.program_counts = marginalCounts(outcome.raw, job.program_clbits);
    PostSelection selected =
        postSelect(outcome.raw, job.slot_clbits, job.program_clbits);
    outcome.slot_error_rate = std::move(selected.slot_error_rate);
    outcome.pass_rate = selected.pass_rate;
    outcome.program_counts_passed = std::move(selected.program_passed);
    return outcome;
}

AssertionOutcomeExact
runAssertedExact(const AssertedProgram& program, const NoiseModel* noise)
{
    const PolicyJob job = policyJob(program);
    AssertionOutcomeExact outcome;
    outcome.raw = exactDistribution(program.circuit(), noise);

    for (const std::vector<int>& slot : job.slot_clbits) {
        outcome.slot_error_prob.push_back(outcome.raw.mass(
            [&](const std::string& bits) { return flags(bits, slot); }));
    }
    const auto pass = [&](const std::string& bits) {
        return passes(bits, job.slot_clbits);
    };
    outcome.pass_prob = outcome.raw.mass(pass);
    outcome.program_dist =
        marginalDistribution(outcome.raw, job.program_clbits);

    Distribution passed;
    for (const auto& [bits, p] : outcome.raw.probs) {
        if (pass(bits)) passed.probs.emplace(bits, p);
    }
    outcome.program_dist_passed =
        marginalDistribution(passed, job.program_clbits);
    return outcome;
}

const char*
policyName(AssertionPolicy policy)
{
    switch (policy) {
      case AssertionPolicy::kDiscard: return "discard";
      case AssertionPolicy::kRepair:  return "repair";
    }
    return "unknown";
}

PolicyJob
policyJob(const AssertedProgram& program)
{
    PolicyJob job;
    job.circuit = &program.circuit();
    job.program_clbits = program.programClbits();
    job.repair_supported = true;
    for (const AssertedProgram::Slot& slot : program.slots()) {
        job.slot_clbits.push_back(slot.clbits);
        job.repair_supported &= slot.design == AssertionDesign::kSwap;
    }
    return job;
}

PolicyOutcome
runPolicy(const PolicyJob& job, const backend::Route& route,
          const SimOptions& options, const PolicyOptions& popts)
{
    QA_REQUIRE(job.circuit != nullptr, "policy job needs a circuit");
    QA_REQUIRE(options.shots > 0, "need a positive shot count");
    const bool repair = popts.policy == AssertionPolicy::kRepair;
    QA_REQUIRE_CODE(!repair || job.repair_supported,
                    ErrorCode::kPolicyUnsupported,
                    "repair policy requires slots that restore the "
                    "asserted state (SWAP-based designs)");
    const std::shared_ptr<const backend::PreparedCircuit> prepared =
        backend::prepareRouted(*job.circuit, options, route);
    Counts all = backend::runPrepared(*prepared, options);

    PolicyOutcome out;
    out.policy = popts.policy;
    out.backend = route.choice;
    out.mps_truncation_error = prepared->truncationError();
    out.shots_requested = options.shots;
    out.shots_completed = all.shots;
    out.truncated = all.truncated;
    PostSelection selected;
    if (repair) {
        // Every shot is accepted: the slots re-prepared the state.
        selected = postSelect(all, job.slot_clbits, job.program_clbits);
        out.repaired = all.shots - selected.passed.shots;
        out.program_counts = marginalCounts(all, job.program_clbits);
        out.raw = std::move(all);
    } else {
        selected =
            postSelect(std::move(all), job.slot_clbits, job.program_clbits);
        out.program_counts = std::move(selected.program_passed);
        out.raw = std::move(selected.passed);
    }
    out.shots_accepted = out.raw.shots;
    out.slot_error_rate = std::move(selected.slot_error_rate);
    out.pass_rate = selected.pass_rate;
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
