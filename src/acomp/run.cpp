#include "acomp/run.hpp"

#include "common/error.hpp"

namespace qa
{
namespace acomp
{

PolicyJob
policyJob(const CompiledProgram& compiled)
{
    QA_REQUIRE(!compiled.variants.empty(),
               "a compiled program needs at least one variant");
    PolicyJob job;
    for (const QuantumCircuit& variant : compiled.variants) {
        job.variants.push_back(&variant);
    }
    for (const SlotSummary& slot : compiled.slots) {
        job.slot_clbits.push_back(slot.clbits);
    }
    job.program_clbits = compiled.program_clbits;
    job.repair_supported = compiled.repair_supported;
    return job;
}

PolicyOutcome
runLowered(const CompiledProgram& compiled, const SimOptions& options,
           const PolicyOptions& popts)
{
    const PolicyJob job = policyJob(compiled);
    return runPolicy(job, backend::route(compiled.variants[0], options),
                     options, popts);
}

PlannedRun
planRun(const QuantumCircuit& circuit, const SimOptions& options,
        const AcompOptions* auto_assert,
        const std::vector<QasmPos>* positions)
{
    PlannedRun plan;
    if (auto_assert != nullptr) {
        plan.compiled = autoAssert(circuit, *auto_assert, positions);
    }
    plan.route = backend::route(
        plan.compiled ? plan.compiled->variants[0] : circuit, options);
    return plan;
}

} // namespace acomp
} // namespace qa
