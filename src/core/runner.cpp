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

/**
 * One all-shot histogram read through its assertion slots. A shot flags
 * slot i when a bit of slot i reads '1', and passes when it flags no
 * slot.
 */
struct PostSelection
{
    /** Fraction of shots flagging each slot (0 when no shot ran). */
    std::vector<double> slot_error_rate;

    /** Fraction of shots flagging no slot (1 when no shot ran). */
    double pass_rate = 1.0;

    /** The accepted shots restricted to the program clbits, in order. */
    Counts program_accepted;
};

/**
 * Read `all` through `slot_clbits`. Rates are shares of `all.shots`;
 * the accepted shots are the passing ones under kDiscard and every
 * shot under kRepair.
 */
PostSelection
postSelect(const Counts& all, const std::vector<std::vector<int>>& slot_clbits,
           const std::vector<int>& program_clbits, AssertionPolicy policy)
{
    PostSelection out;
    out.slot_error_rate.assign(slot_clbits.size(), 0.0);
    const bool keep_flagged = policy == AssertionPolicy::kRepair;
    if (keep_flagged || slot_clbits.empty()) {
        out.program_accepted = programMarginal(all, program_clbits);
    } else {
        out.program_accepted.truncated = all.truncated;
    }
    if (slot_clbits.empty() || all.shots == 0) return out;

    std::vector<long> flagged(slot_clbits.size(), 0);
    long passed = 0;
    for (const auto& [bits, n] : all.map) {
        bool pass = true;
        for (size_t i = 0; i < slot_clbits.size(); ++i) {
            if (flags(bits, slot_clbits[i])) {
                flagged[i] += n;
                pass = false;
            }
        }
        if (!pass) continue;
        passed += n;
        if (keep_flagged) continue;
        std::string reduced;
        reduced.reserve(program_clbits.size());
        for (int c : program_clbits) reduced.push_back(bits[size_t(c)]);
        out.program_accepted.map[reduced] += n;
        out.program_accepted.shots += n;
    }
    for (size_t i = 0; i < slot_clbits.size(); ++i) {
        out.slot_error_rate[i] = double(flagged[i]) / double(all.shots);
    }
    out.pass_rate = double(passed) / double(all.shots);
    return out;
}

} // namespace

AssertionOutcome
runAsserted(const AssertedProgram& program, const SimOptions& options)
{
    PolicyOutcome run = runAssertedPolicy(program, options, PolicyOptions{});
    AssertionOutcome outcome;
    outcome.program_counts =
        marginalCounts(run.raw, program.programClbits());
    outcome.raw = std::move(run.raw);
    outcome.program_counts_passed = std::move(run.program_counts);
    outcome.slot_error_rate = std::move(run.slot_error_rate);
    outcome.pass_rate = run.pass_rate;
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
    QA_REQUIRE_CODE(popts.policy != AssertionPolicy::kRepair ||
                        job.repair_supported,
                    ErrorCode::kPolicyUnsupported,
                    "repair policy requires slots that restore the "
                    "asserted state (SWAP-based designs)");
    const std::shared_ptr<const backend::PreparedCircuit> prepared =
        backend::prepareRouted(*job.circuit, options, route);
    Counts all = backend::runPrepared(*prepared, options);
    PostSelection selected =
        postSelect(all, job.slot_clbits, job.program_clbits, popts.policy);

    PolicyOutcome out;
    out.program_counts = std::move(selected.program_accepted);
    out.slot_error_rate = std::move(selected.slot_error_rate);
    out.pass_rate = selected.pass_rate;
    out.truncated = all.truncated;
    out.backend = route.choice;
    out.mps_truncation_error = prepared->truncationError();
    out.raw = std::move(all);
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
