/**
 * @file
 * Fault-injection campaign runner: sweep (location x fault kind) across
 * a circuit, re-assert each faulted variant, and report per-slot and
 * aggregate detection coverage — the systematic version of the paper's
 * Sec. IX error-injection evaluation.
 *
 * Determinism contract: a seeded campaign is bit-identical for any
 * thread count. Each fault run derives its own seed from (campaign
 * seed, fault index) with the same splitmix64 mixing the engine's
 * counter-based shot streams use, and the underlying shot runs are
 * themselves thread-count independent.
 */
#ifndef QA_INJECT_CAMPAIGN_HPP
#define QA_INJECT_CAMPAIGN_HPP

#include <functional>
#include <string>
#include <vector>

#include "core/asserted_program.hpp"
#include "inject/fault.hpp"
#include "sim/noise.hpp"

namespace qa
{

/** Campaign sweep configuration. */
struct CampaignOptions
{
    /** Fault kinds to sweep (crossed with every applicable location). */
    std::vector<FaultKind> kinds = {FaultKind::kPauliX, FaultKind::kPauliY,
                                    FaultKind::kPauliZ};

    /** Shots per fault run; 0 selects the exact (probability) backend. */
    int shots = 0;

    /** Campaign seed: per-fault run seeds are derived from it. */
    uint64_t seed = 12345;

    /** Worker threads per shot run (0 = hardware concurrency). */
    int num_threads = 0;

    /** Optional noise model active during every run (including the
     *  fault-free baseline). */
    const NoiseModel* noise = nullptr;

    /**
     * A slot detects a fault when its error rate exceeds the fault-free
     * baseline by more than this threshold.
     */
    double detection_threshold = 0.05;

    /**
     * A fault corrupts the output when the total-variation distance
     * between the bare (unasserted) faulted program's output
     * distribution and the bare fault-free one exceeds this threshold.
     * The comparison deliberately excludes the assertion
     * instrumentation: SWAP-based slots repair the state and the others
     * filter it, which would mask exactly the corruption being measured.
     */
    double corruption_threshold = 0.05;

    /** Per-fault-run wall-clock budget in ms; <= 0 runs unbounded. */
    double deadline_ms = 0.0;
};

/** Outcome of one injected fault. */
struct FaultRecord
{
    FaultSpec fault;

    /** Per-slot assertion-error rate (sampled) or probability (exact). */
    std::vector<double> slot_error;

    /** First slot whose error rate exceeded baseline + threshold
     *  (-1 when none did). */
    int detecting_slot = -1;

    /** True when at least one slot flagged the fault. */
    bool detected = false;

    /** True when the fault visibly corrupted the bare (unasserted)
     *  program's output distribution. */
    bool output_corrupted = false;

    /** True when the run's deadline truncated its shots. */
    bool truncated = false;
};

/** Aggregated campaign report. */
struct CampaignReport
{
    /** Fault-free per-slot error rates (the detection baseline). */
    std::vector<double> baseline_slot_error;

    /** One record per injected fault, in enumeration order. */
    std::vector<FaultRecord> records;

    /** Per-slot count of faults the slot detected. */
    std::vector<int> slot_detections;

    /** Per-slot detection coverage: slot_detections / num_faults. */
    std::vector<double> slot_coverage;

    int num_faults = 0;

    /** Faults detected by at least one slot. */
    int num_detected = 0;

    /** Faults that corrupted the program output. */
    int num_corrupting = 0;

    /** Corrupting faults no slot caught — the dangerous silent ones. */
    int num_silent_corrupting = 0;

    /** Aggregate detection coverage over all injected faults. */
    double
    coverage() const
    {
        return num_faults == 0 ? 1.0
                               : double(num_detected) / double(num_faults);
    }

    /** Aligned text table (per-kind rows + totals) for bench output. */
    std::string summary() const;
};

/**
 * Sweeps faults through a program circuit and measures which assertion
 * slots catch them. The asserter callback rebuilds the assertion
 * instrumentation around each faulted program variant, so slots always
 * assert the *intended* states while the program underneath is broken —
 * exactly the deployment scenario runtime assertions target.
 */
class CampaignRunner
{
  public:
    /** Builds the asserted program around a (possibly faulted) copy of
     *  the program circuit. Must insert at least one slot. */
    using Asserter =
        std::function<AssertedProgram(const QuantumCircuit& program)>;

    CampaignRunner(QuantumCircuit program, Asserter asserter);

    /**
     * Convenience campaign: assert that the program's (fault-free) final
     * state survives, then measure every program qubit. The program must
     * be measurement-free.
     */
    static CampaignRunner assertingFinalState(
        const QuantumCircuit& program, AssertionDesign design,
        SwapPlacement placement = SwapPlacement::kInvBeforePrepAfter);

    /** The fault-free program under test. */
    const QuantumCircuit& program() const { return program_; }

    /** Run the sweep. */
    CampaignReport run(const CampaignOptions& options) const;

  private:
    QuantumCircuit program_;
    Asserter asserter_;
};

/** Campaign-driven check of the SlotDebugger localization workflow. */
struct LocalizationReport
{
    int num_faults = 0;

    /** Faults the debugger flagged at all (bugFound()). */
    int num_detected = 0;

    /** Faults whose suspect stage equals the faulted stage. */
    int num_localized = 0;

    /** Total slot evaluations across all debugger runs. */
    int evaluations = 0;

    /** Fraction of detected faults localized to the right stage. */
    double
    localizationRate() const
    {
        return num_detected == 0
                   ? 1.0
                   : double(num_localized) / double(num_detected);
    }
};

/**
 * Inject every (stage x location x kind) fault into the staged program
 * and run SlotDebugger against the fault-free reference each time,
 * checking that the reported suspect stage is the faulted one. Exercises
 * the debugger the way Sec. IX's Fig. 16 workflow is meant to be used.
 */
LocalizationReport checkLocalization(
    const std::vector<QuantumCircuit>& reference,
    const std::vector<FaultKind>& kinds,
    AssertionDesign design = AssertionDesign::kSwap, bool bisect = true);

} // namespace qa

#endif // QA_INJECT_CAMPAIGN_HPP
