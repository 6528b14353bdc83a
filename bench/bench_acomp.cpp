/**
 * @file
 * PR 8 acceptance bench: the assertion compiler's lowered Pauli forms
 * against the paper's SWAP design on a GHZ/QFT catalog.
 *
 * For each workload the same assertion site is lowered twice — forced
 * kSwap (the paper baseline) and kAuto (which picks the ancilla-free
 * Pauli parity form for these stabilizer-expressible slots) — and both
 * instrumented programs run end-to-end at 4096 shots under the policy
 * runner. Recorded per form: ancilla count, inserted gate/CX budget,
 * wall-clock, and the verdict statistics. Acceptance:
 *
 *  - the auto-lowered form uses ZERO ancillas on every catalog slot
 *    (the SWAP baseline needs >= 1),
 *  - both forms accept every clean shot, and their accepted program
 *    histograms are chi-square indistinguishable,
 *  - the Clifford workloads stay on the stabilizer backend after
 *    instrumentation (the SWAP form does too — its basis change is
 *    Clifford here — so the interesting delta is gates and ancillas).
 *
 * Writes the record to argv[1] when that is not an option, and prints
 * it to stdout otherwise (bench::emitRecord).
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "acomp/compiler.hpp"
#include "acomp/run.hpp"
#include "algos/qft.hpp"
#include "algos/states.hpp"
#include "baselines/chi_square.hpp"
#include "bench_util.hpp"
#include "core/state_set.hpp"
#include "linalg/states.hpp"

namespace
{

using namespace qa;
using namespace qa::acomp;
using namespace qa::algos;

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point start, Clock::time_point stop)
{
    return std::chrono::duration<double, std::milli>(stop - start).count();
}

/** One catalog workload: a raw circuit plus its assertion site. */
struct Workload
{
    std::string name;
    QuantumCircuit circuit{1};
    AssertionSite site;
};

/** GHZ-n prep, guard at end of prep, terminal measurement. */
Workload
ghzWorkload(int n)
{
    Workload w;
    w.name = "ghz" + std::to_string(n);
    QuantumCircuit qc(n, n);
    qc.h(0);
    for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
    w.site.position = qc.instructions().size();
    for (int q = 0; q < n; ++q) {
        w.site.qubits.push_back(q);
        qc.measure(q, q);
    }
    w.site.set =
        std::make_shared<StateSet>(StateSet::pure(ghzVector(n)));
    w.circuit = qc;
    return w;
}

/** GHZ-n prep guarded *before* a QFT suffix (non-Clifford program). */
Workload
qftWorkload(int n)
{
    Workload w = ghzWorkload(n);
    w.name = "ghz" + std::to_string(n) + "_qft";
    QuantumCircuit qc(n, n);
    qc.h(0);
    for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
    w.site.position = qc.instructions().size();
    std::vector<int> qubits;
    for (int q = 0; q < n; ++q) qubits.push_back(q);
    appendQft(qc, qubits);
    for (int q = 0; q < n; ++q) qc.measure(q, q);
    w.circuit = qc;
    return w;
}

/** One lowered form's measured record. */
struct FormRecord
{
    LoweringForm form = LoweringForm::kSwap;
    int ancillas = 0;
    int gates = 0;
    int cx = 0;
    int variants = 1;
    double ms = 0.0;
    double pass_rate = 0.0;
    Counts program_counts;
};

FormRecord
measure(const Workload& w, LoweringRequest req, int shots, uint64_t seed)
{
    AcompOptions opts;
    opts.lowering = req;
    const CompiledProgram compiled =
        compileAssertions(w.circuit, {w.site}, opts);
    SimOptions options;
    options.shots = shots;
    options.seed = seed;
    const auto start = Clock::now();
    const PolicyOutcome out = runLowered(compiled, options);
    FormRecord rec;
    rec.ms = elapsedMs(start, Clock::now());
    rec.form = compiled.slots[0].form;
    rec.ancillas = int(compiled.slots[0].ancillas.size());
    rec.gates = compiled.slots[0].gates;
    rec.cx = compiled.slots[0].cx;
    rec.variants = int(compiled.variants.size());
    rec.pass_rate = out.pass_rate;
    rec.program_counts = out.program_counts;
    return rec;
}

/**
 * Two-sample chi-square p-value between two accepted program
 * histograms. Both sides are samples, so neither can serve as exact
 * expected probabilities (that would double-count sampling noise
 * across many small cells); the two-sample statistic
 * sum (a_i - b_i)^2 / (a_i + b_i), scaled for unequal totals, is the
 * honest equivalence test.
 */
double
agreementPValue(const Counts& a, const Counts& b)
{
    const double na = double(a.shots), nb = double(b.shots);
    const double ka = std::sqrt(nb / na), kb = std::sqrt(na / nb);
    double statistic = 0.0;
    int cells = 0;
    std::vector<std::string> keys;
    for (const auto& [bits, n] : a.map) keys.push_back(bits);
    for (const auto& [bits, n] : b.map) {
        if (a.map.find(bits) == a.map.end()) keys.push_back(bits);
    }
    for (const std::string& key : keys) {
        const auto oa = a.map.find(key);
        const auto ob = b.map.find(key);
        const double ca = oa == a.map.end() ? 0.0 : double(oa->second);
        const double cb = ob == b.map.end() ? 0.0 : double(ob->second);
        if (ca + cb <= 0.0) continue;
        const double d = ka * ca - kb * cb;
        statistic += d * d / (ca + cb);
        ++cells;
    }
    if (cells <= 1) return 1.0;
    return chiSquareSurvival(statistic, cells - 1);
}

} // namespace

int
main(int argc, char** argv)
{
    const int kShots = 4096;
    const uint64_t kSeed = 20260808;
    bool ok = true;

    std::vector<Workload> catalog;
    catalog.push_back(ghzWorkload(6));
    catalog.push_back(ghzWorkload(10));
    catalog.push_back(qftWorkload(6));

    std::ostringstream rows;
    for (size_t i = 0; i < catalog.size(); ++i) {
        const Workload& w = catalog[i];
        const FormRecord swap =
            measure(w, LoweringRequest::kSwap, kShots, kSeed);
        const FormRecord autod =
            measure(w, LoweringRequest::kAuto, kShots, kSeed);

        const double p =
            agreementPValue(autod.program_counts, swap.program_counts);
        const double gate_ratio =
            swap.gates > 0 ? double(autod.gates) / double(swap.gates)
                           : 1.0;
        const double speedup = autod.ms > 0.0 ? swap.ms / autod.ms : 1.0;
        std::printf(
            "%-10s swap: anc=%d gates=%d cx=%d %.1fms | auto(%s): "
            "anc=%d gates=%d cx=%d %.1fms | gate ratio %.2f, "
            "speedup %.2fx, chi-square p %.4f\n",
            w.name.c_str(), swap.ancillas, swap.gates, swap.cx, swap.ms,
            formName(autod.form), autod.ancillas, autod.gates, autod.cx,
            autod.ms, gate_ratio, speedup, p);

        if (autod.ancillas != 0 || swap.ancillas < 1) {
            std::printf("FAIL: expected ancilla-free auto lowering vs "
                        ">=1 SWAP ancilla\n");
            ok = false;
        }
        if (autod.form != LoweringForm::kPauliMeasure) {
            std::printf("FAIL: cost model did not pick the Pauli form\n");
            ok = false;
        }
        if (swap.pass_rate != 1.0 || autod.pass_rate != 1.0) {
            std::printf("FAIL: clean workload did not pass every shot\n");
            ok = false;
        }
        if (p <= 1e-4) {
            std::printf("FAIL: cross-form histograms distinguishable\n");
            ok = false;
        }

        if (i) rows << ",\n";
        rows << "  {\"workload\": \"" << w.name << "\",\n"
             << "   \"swap\": {\"ancillas\": " << swap.ancillas
             << ", \"gates\": " << swap.gates << ", \"cx\": " << swap.cx
             << ", \"ms\": " << swap.ms
             << ", \"pass_rate\": " << swap.pass_rate << "},\n"
             << "   \"lowered\": {\"form\": \"" << formName(autod.form)
             << "\", \"ancillas\": " << autod.ancillas
             << ", \"gates\": " << autod.gates
             << ", \"cx\": " << autod.cx << ", \"ms\": " << autod.ms
             << ", \"pass_rate\": " << autod.pass_rate << "},\n"
             << "   \"ancilla_reduction\": "
             << (swap.ancillas - autod.ancillas)
             << ", \"gate_ratio\": " << gate_ratio
             << ", \"speedup\": " << speedup
             << ", \"chi_square_p\": " << p << "}";
    }

    std::ostringstream json;
    json.precision(6);
    json << std::fixed;
    json << "{\n"
         << " \"bench\": \"assertion compiler lowering (PR 8)\",\n"
         << " \"description\": \"Each catalog slot lowered twice: the "
            "paper's SWAP design (forced) vs the cost model's pick "
            "(ancilla-free Pauli parity measurements for these "
            "stabilizer-expressible targets). 4096 shots end-to-end "
            "through the policy runner per form; chi_square_p tests "
            "the two forms' accepted program histograms for "
            "distributional agreement. ghzN_qft guards the GHZ prep "
            "before a non-Clifford QFT suffix, so its instrumented "
            "circuit runs on the statevector backend where the SWAP "
            "ancilla doubles the state size.\",\n"
         << " \"shots\": " << kShots << ",\n"
         << " \"pass\": " << (ok ? "true" : "false") << ",\n"
         << " \"workloads\": [\n"
         << rows.str() << "\n ]\n}\n";

    bench::emitRecord(argc, argv, json.str());
    std::printf("bench_acomp: %s\n", ok ? "pass" : "FAIL");
    return ok ? 0 : 1;
}
