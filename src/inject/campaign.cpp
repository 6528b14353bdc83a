#include "inject/campaign.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "core/debugger.hpp"
#include "core/runner.hpp"
#include "sim/exact.hpp"
#include "sim/statevector.hpp"

namespace qa
{

namespace
{

/** Total-variation distance between two outcome distributions. */
double
totalVariation(const Distribution& a, const Distribution& b)
{
    double tv = 0.0;
    for (const auto& [bits, p] : a.probs) {
        tv += std::abs(p - b.probability(bits));
    }
    for (const auto& [bits, q] : b.probs) {
        if (a.probs.find(bits) == a.probs.end()) tv += q;
    }
    return 0.5 * tv;
}

/** Per-run results in one backend-independent shape. */
struct RunResult
{
    std::vector<double> slot_error;
    bool truncated = false;
};

/** Per-fault seed: same splitmix64 mixing as Rng::forStream streams. */
uint64_t
deriveRunSeed(uint64_t campaign_seed, size_t run_index)
{
    return splitmix64(campaign_seed +
                      0x9E3779B97F4A7C15ULL * uint64_t(run_index));
}

/** A copy of `c` that measures every qubit when it measures nothing. */
QuantumCircuit
withMeasurements(const QuantumCircuit& c)
{
    if (c.countMeasure() > 0) return c;
    QuantumCircuit qc(c.numQubits(), c.numQubits());
    std::vector<int> ident;
    for (int q = 0; q < c.numQubits(); ++q) ident.push_back(q);
    qc.compose(c, ident);
    qc.measureAll();
    return qc;
}

/**
 * Output distribution of the bare (unasserted) program. Corruption must
 * be judged against the program alone: the assertion instrumentation
 * filters or even repairs the state (the SWAP design re-prepares the
 * asserted state, Sec. IV), so the post-assertion output would hide
 * exactly the corruption the campaign is trying to attribute.
 */
Distribution
bareProgramDist(const QuantumCircuit& program,
                const CampaignOptions& options, size_t run_index)
{
    const QuantumCircuit measured = withMeasurements(program);
    if (options.shots <= 0) {
        return exactDistribution(measured, options.noise);
    }
    SimOptions sim;
    sim.shots = options.shots;
    // Offset stream: independent of the asserted runs' seeds.
    sim.seed = deriveRunSeed(~options.seed, run_index);
    sim.noise = options.noise;
    sim.num_threads = options.num_threads;
    sim.deadline_ms = options.deadline_ms;
    const Counts counts = runShots(measured, sim);
    return counts.shots > 0 ? counts.toDistribution() : Distribution{};
}

RunResult
runOnce(const AssertedProgram& asserted, const CampaignOptions& options,
        size_t run_index)
{
    RunResult result;
    if (options.shots <= 0) {
        const AssertionOutcomeExact exact =
            runAssertedExact(asserted, options.noise);
        result.slot_error = exact.slot_error_prob;
        return result;
    }
    SimOptions sim;
    sim.shots = options.shots;
    sim.seed = deriveRunSeed(options.seed, run_index);
    sim.noise = options.noise;
    sim.num_threads = options.num_threads;
    sim.deadline_ms = options.deadline_ms;
    const AssertionOutcome sampled = runAsserted(asserted, sim);
    result.slot_error = sampled.slot_error_rate;
    result.truncated = sampled.raw.truncated;
    return result;
}

} // namespace

CampaignRunner::CampaignRunner(QuantumCircuit program, Asserter asserter)
    : program_(std::move(program)), asserter_(std::move(asserter))
{
    QA_REQUIRE(asserter_ != nullptr, "campaign needs an asserter");
}

CampaignRunner
CampaignRunner::assertingFinalState(const QuantumCircuit& program,
                                    AssertionDesign design,
                                    SwapPlacement placement)
{
    QA_REQUIRE(program.countMeasure() == 0,
               "assertingFinalState needs a measurement-free program");
    const CVector expected = finalState(program).amplitudes();
    std::vector<int> qubits;
    for (int q = 0; q < program.numQubits(); ++q) qubits.push_back(q);
    return CampaignRunner(
        program,
        [expected, qubits, design, placement](const QuantumCircuit& c) {
            AssertedProgram asserted(c);
            asserted.assertState(qubits, StateSet::pure(expected), design,
                                 placement);
            asserted.measureProgram();
            return asserted;
        });
}

CampaignReport
CampaignRunner::run(const CampaignOptions& options) const
{
    CampaignReport report;

    // Fault-free baseline: detection thresholds are measured as excess
    // error over this run, so a noisy baseline doesn't read as coverage.
    const AssertedProgram baseline_prog = asserter_(program_);
    QA_REQUIRE(!baseline_prog.slots().empty(),
               "campaign asserter must insert at least one slot");
    const size_t num_slots = baseline_prog.slots().size();
    const RunResult baseline = runOnce(baseline_prog, options, 0);
    report.baseline_slot_error = baseline.slot_error;
    const Distribution bare_baseline =
        bareProgramDist(program_, options, 0);

    const std::vector<FaultSpec> faults =
        enumerateFaultSites(program_, options.kinds);
    report.num_faults = int(faults.size());
    report.slot_detections.assign(num_slots, 0);
    report.slot_coverage.assign(num_slots, 0.0);
    report.records.reserve(faults.size());

    for (size_t f = 0; f < faults.size(); ++f) {
        const QuantumCircuit faulted = injectFault(program_, faults[f]);
        const AssertedProgram asserted = asserter_(faulted);
        QA_ASSERT(asserted.slots().size() == num_slots,
                  "asserter changed the slot count between runs");
        const RunResult result = runOnce(asserted, options, f + 1);

        FaultRecord record;
        record.fault = faults[f];
        record.slot_error = result.slot_error;
        record.truncated = result.truncated;
        for (size_t s = 0; s < num_slots; ++s) {
            const double excess =
                result.slot_error[s] - report.baseline_slot_error[s];
            if (excess > options.detection_threshold) {
                if (record.detecting_slot < 0) {
                    record.detecting_slot = int(s);
                }
                ++report.slot_detections[s];
            }
        }
        record.detected = record.detecting_slot >= 0;
        record.output_corrupted =
            totalVariation(bareProgramDist(faulted, options, f + 1),
                           bare_baseline) > options.corruption_threshold;

        if (record.detected) ++report.num_detected;
        if (record.output_corrupted) {
            ++report.num_corrupting;
            if (!record.detected) ++report.num_silent_corrupting;
        }
        report.records.push_back(std::move(record));
    }

    for (size_t s = 0; s < num_slots; ++s) {
        report.slot_coverage[s] =
            report.num_faults == 0
                ? 1.0
                : double(report.slot_detections[s]) /
                      double(report.num_faults);
    }
    return report;
}

std::string
CampaignReport::summary() const
{
    // Per-kind aggregation in record order.
    struct KindStats
    {
        int faults = 0;
        int detected = 0;
        int corrupting = 0;
        int silent = 0;
    };
    std::map<std::string, KindStats> by_kind;
    std::vector<std::string> kind_order;
    for (const FaultRecord& record : records) {
        const std::string name = faultKindName(record.fault.kind);
        if (by_kind.find(name) == by_kind.end()) kind_order.push_back(name);
        KindStats& stats = by_kind[name];
        ++stats.faults;
        if (record.detected) ++stats.detected;
        if (record.output_corrupted) {
            ++stats.corrupting;
            if (!record.detected) ++stats.silent;
        }
    }

    TextTable table({"Fault kind", "Injected", "Detected", "Coverage",
                     "Corrupting", "Silent"});
    for (const std::string& name : kind_order) {
        const KindStats& stats = by_kind[name];
        table.addRow({name, std::to_string(stats.faults),
                      std::to_string(stats.detected),
                      formatPercent(stats.faults == 0
                                        ? 1.0
                                        : double(stats.detected) /
                                              double(stats.faults)),
                      std::to_string(stats.corrupting),
                      std::to_string(stats.silent)});
    }
    table.addRow({"total", std::to_string(num_faults),
                  std::to_string(num_detected), formatPercent(coverage()),
                  std::to_string(num_corrupting),
                  std::to_string(num_silent_corrupting)});

    std::string out = table.render();
    TextTable slots({"Slot", "Detections", "Coverage", "Baseline err"});
    for (size_t s = 0; s < slot_coverage.size(); ++s) {
        slots.addRow({std::to_string(s),
                      std::to_string(slot_detections[s]),
                      formatPercent(slot_coverage[s]),
                      formatDouble(baseline_slot_error.empty()
                                       ? 0.0
                                       : baseline_slot_error[s])});
    }
    out += slots.render();
    return out;
}

LocalizationReport
checkLocalization(const std::vector<QuantumCircuit>& reference,
                  const std::vector<FaultKind>& kinds,
                  AssertionDesign design, bool bisect)
{
    QA_REQUIRE(!reference.empty(),
               "localization check needs at least one stage");
    LocalizationReport report;
    const std::vector<FaultSpec> faults =
        enumerateStageFaultSites(reference, kinds);
    report.num_faults = int(faults.size());

    for (const FaultSpec& fault : faults) {
        std::vector<QuantumCircuit> program = reference;
        program[size_t(fault.stage)] =
            injectFault(reference[size_t(fault.stage)], fault);
        const SlotDebugger debugger(std::move(program), reference);
        const SlotDebugReport debug =
            bisect ? debugger.bisect(design) : debugger.run(design);
        report.evaluations += debug.evaluations;
        if (!debug.bugFound()) continue;
        ++report.num_detected;
        if (debug.suspectStage() == fault.stage) ++report.num_localized;
    }
    return report;
}

} // namespace qa
