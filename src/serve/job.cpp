#include "serve/job.hpp"

#include <algorithm>
#include <new>

#include "acomp/run.hpp"
#include "circuit/hash.hpp"
#include "common/error.hpp"

namespace qa
{
namespace serve
{

namespace
{

/**
 * The assert_clbits slots of a plain circuit, each non-empty and in
 * range: the run and the explain op both check them (planJob).
 */
void
validateSlots(const JobSpec& spec)
{
    const int num_clbits = spec.circuit.numClbits();
    for (const std::vector<int>& slot : spec.assert_clbits) {
        QA_REQUIRE_CODE(!slot.empty(), ErrorCode::kBadRequest,
                        "assertion slot lists no classical bits");
        for (int c : slot) {
            QA_REQUIRE_CODE(c >= 0 && c < num_clbits, ErrorCode::kBadRequest,
                            "assertion clbit " + std::to_string(c) +
                                " out of range for " +
                                std::to_string(num_clbits) +
                                " classical bits");
        }
    }
}

/**
 * The policy job of a plain circuit: its assert_clbits are the slots,
 * and the clbits no slot owns are the program bits. Repair needs slots
 * that restore the asserted state, which a bare clbit list cannot
 * promise, so only a slot-less plain job supports it.
 */
PolicyJob
plainJob(const JobSpec& spec)
{
    PolicyJob job;
    job.circuit = &spec.circuit;
    job.slot_clbits = spec.assert_clbits;
    std::vector<bool> owned(size_t(spec.circuit.numClbits()), false);
    for (const std::vector<int>& slot : spec.assert_clbits) {
        for (int c : slot) owned[size_t(c)] = true;
    }
    for (int c = 0; c < spec.circuit.numClbits(); ++c) {
        if (!owned[size_t(c)]) job.program_clbits.push_back(c);
    }
    job.repair_supported = spec.assert_clbits.empty();
    return job;
}

/** The SimOptions a spec executes (and routes) under. */
SimOptions
specOptions(const JobSpec& spec)
{
    SimOptions options;
    options.shots = spec.shots;
    options.seed = spec.seed;
    options.noise = spec.noise.enabled() ? &spec.noise : nullptr;
    options.num_threads = spec.num_threads;
    options.deadline_ms = spec.deadline_ms;
    options.backend = spec.backend;
    options.mps_chi = spec.mps_chi;
    options.mps_trunc_tol = spec.mps_trunc_tol;
    return options;
}

} // namespace

const char*
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::kOk:        return "ok";
      case JobStatus::kFailed:    return "failed";
      case JobStatus::kCancelled: return "cancelled";
    }
    return "unknown";
}

Hash128
jobKey(const JobSpec& spec)
{
    HashStream stream(0x6a6f62ULL); // domain tag: "job"
    if (spec.program != nullptr) {
        stream.u64(1); // program-path jobs never collide with plain ones
        absorbCircuit(stream, spec.program->circuit());
        const auto& slots = spec.program->slots();
        stream.u64(slots.size());
        for (const AssertedProgram::Slot& slot : slots) {
            stream.i64(int64_t(slot.design));
            stream.u64(slot.qubits.size());
            for (int q : slot.qubits) stream.i64(q);
            stream.u64(slot.clbits.size());
            for (int c : slot.clbits) stream.i64(c);
        }
        const auto& prog_clbits = spec.program->programClbits();
        stream.u64(prog_clbits.size());
        for (int c : prog_clbits) stream.i64(c);
        stream.i64(int64_t(spec.policy));
    } else {
        stream.u64(0);
        absorbCircuit(stream, spec.circuit);
        stream.u64(spec.assert_clbits.size());
        for (const std::vector<int>& slot : spec.assert_clbits) {
            stream.u64(slot.size());
            for (int c : slot) stream.i64(c);
        }
        // A plain job with slots fails under kRepair (and failures are
        // never cached), and a slot-less one passes every shot, so its
        // repair payload is its discard payload: the policy carries no
        // information here — except under auto_assert, where the
        // compiler path honors the full policy range and the lowering
        // request changes the instrumented circuit.
        stream.u64(spec.auto_assert ? 1 : 0);
        if (spec.auto_assert) {
            stream.i64(int64_t(spec.assert_lowering));
            stream.i64(int64_t(spec.policy));
        }
    }
    const Hash128 noise = spec.noise.fingerprint();
    stream.u64(noise.hi);
    stream.u64(noise.lo);
    stream.i64(spec.shots);
    stream.u64(spec.seed);

    // Every other input routing reads: the backend request, plus the
    // MPS chi cap and tolerance whenever routing may pick MPS (auto) or
    // must run it (mps). Routing is a pure function of the absorbed
    // fields, so the key never routes. The price: an explicit request
    // for the backend auto would pick keys apart from the auto job.
    stream.i64(int64_t(spec.backend));
    if (spec.backend == BackendRequest::kAuto ||
        spec.backend == BackendRequest::kMps) {
        stream.i64(spec.mps_chi);
        stream.f64(spec.mps_trunc_tol);
    }
    return stream.digest();
}

acomp::PlannedRun
planJob(const JobSpec& spec)
{
    if (spec.program != nullptr) {
        QA_REQUIRE_CODE(!spec.auto_assert, ErrorCode::kBadRequest,
                        "auto_assert conflicts with an explicit "
                        "AssertedProgram (the program already carries "
                        "its assertions)");
        return acomp::planRun(spec.program->circuit(), specOptions(spec));
    }
    if (!spec.auto_assert) {
        validateSlots(spec);
        return acomp::planRun(spec.circuit, specOptions(spec));
    }
    QA_REQUIRE_CODE(spec.assert_clbits.empty(), ErrorCode::kBadRequest,
                    "auto_assert conflicts with explicit "
                    "assert_clbits slots (the compiler allocates "
                    "its own slot clbits)");
    acomp::AcompOptions aopts;
    aopts.lowering = spec.assert_lowering;
    aopts.backend = spec.backend;
    return acomp::planRun(
        spec.circuit, specOptions(spec), &aopts,
        spec.qasm_positions.empty() ? nullptr : &spec.qasm_positions);
}

JobResult
executeJob(const JobSpec& spec)
{
    const acomp::PlannedRun plan = planJob(spec);
    const PolicyJob job = plan.compiled ? acomp::policyJob(*plan.compiled)
                          : spec.program ? policyJob(*spec.program)
                                         : plainJob(spec);
    PolicyOptions popts;
    popts.policy = spec.policy;
    PolicyOutcome outcome =
        runPolicy(job, plan.route, specOptions(spec), popts);

    JobResult result;
    result.tag = spec.tag;
    result.counts = std::move(outcome.raw);
    result.program_counts = std::move(outcome.program_counts);
    result.slot_error_rate = std::move(outcome.slot_error_rate);
    result.pass_rate = outcome.pass_rate;
    result.truncated = outcome.truncated;
    result.backend = std::move(outcome.backend);
    result.mps_truncation_error = outcome.mps_truncation_error;
    if (plan.compiled) result.assertions = plan.compiled->slots;
    return result;
}

JobResult
failedResult(const std::exception& err)
{
    JobResult result;
    result.status = JobStatus::kFailed;
    result.error_message = err.what();
    if (const auto* user = dynamic_cast<const UserError*>(&err)) {
        result.error_code = user->code();
    } else if (dynamic_cast<const std::bad_alloc*>(&err) != nullptr) {
        result.error_code = ErrorCode::kResourceExhausted;
    } else {
        result.error_code = ErrorCode::kGeneric;
    }
    return result;
}

namespace
{

void
absorbCounts(HashStream& stream, const Counts& counts)
{
    stream.i64(counts.shots);
    stream.u64(counts.truncated ? 1 : 0);
    stream.u64(counts.map.size());
    for (const auto& [bits, n] : counts.map) { // std::map: sorted order
        stream.str(bits);
        stream.i64(n);
    }
}

} // namespace

Hash128
payloadHash(const JobResult& result)
{
    HashStream stream(0x7061796cULL); // domain tag: "payl"
    stream.i64(int64_t(result.status));
    if (result.status != JobStatus::kOk) {
        stream.i64(int64_t(result.error_code));
        return stream.digest();
    }
    absorbCounts(stream, result.counts);
    absorbCounts(stream, result.program_counts);
    stream.u64(result.slot_error_rate.size());
    for (double rate : result.slot_error_rate) stream.f64(rate);
    stream.f64(result.pass_rate);
    stream.u64(result.truncated ? 1 : 0);
    stream.f64(result.mps_truncation_error);
    stream.u64(result.assertions.size());
    for (const acomp::SlotSummary& slot : result.assertions) {
        stream.i64(int64_t(slot.form));
        stream.i64(int64_t(slot.invariant));
        stream.u64(slot.position);
        stream.u64(slot.clbits.size());
        for (int c : slot.clbits) stream.i64(c);
    }
    stream.i64(result.assert_variants);
    return stream.digest();
}

} // namespace serve
} // namespace qa
