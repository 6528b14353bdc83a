/**
 * @file
 * Execution of compiled (lowered) assertion programs: a thin adapter
 * from acomp::CompiledProgram to the core policy runner's
 * variant-aware shot loop, and the plan step every job entry point
 * shares — compile when auto-asserting, then route what runs first.
 */
#ifndef QA_ACOMP_RUN_HPP
#define QA_ACOMP_RUN_HPP

#include <optional>
#include <vector>

#include "acomp/compiler.hpp"
#include "backend/router.hpp"
#include "core/runner.hpp"

namespace qa
{
namespace acomp
{

/** The policy job of a compiled program (borrows its variants). */
PolicyJob policyJob(const CompiledProgram& compiled);

/**
 * Run a compiled program under an assertion policy: shot s executes
 * variant s % variants.size(), slot verdicts come from the compiled
 * slot clbits (all-zero = pass), and the accepted program histogram is
 * the marginal over the raw circuit's own clbits. Deterministic across
 * thread counts like runAssertedPolicy. kRepair requires
 * compiled.repair_supported (all-SWAP slots, single variant).
 */
PolicyOutcome runLowered(const CompiledProgram& compiled,
                         const SimOptions& options,
                         const PolicyOptions& policy = {});

/** A circuit made ready to run: compiled if asked, then routed once. */
struct PlannedRun
{
    /** The compiled program (auto-asserted runs only). */
    std::optional<CompiledProgram> compiled;

    /** Route of the circuit shot 0 executes: variant 0, or the input. */
    backend::Route route;
};

/**
 * Compile `circuit` with autoAssert when `auto_assert` is non-null,
 * then route the circuit the run executes first. executeJob, the wire
 * explain op and qa_explain share this step, so an explain describes
 * exactly what a run would execute. Throws what autoAssert throws;
 * routing itself never throws.
 */
PlannedRun planRun(const QuantumCircuit& circuit, const SimOptions& options,
                   const AcompOptions* auto_assert = nullptr,
                   const std::vector<QasmPos>* positions = nullptr);

} // namespace acomp
} // namespace qa

#endif // QA_ACOMP_RUN_HPP
