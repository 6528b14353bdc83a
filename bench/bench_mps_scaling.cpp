/**
 * @file
 * PR 10 acceptance bench: the MPS backend on the wide low-entanglement
 * workload class the dense backends cannot reach. The acceptance job is
 * a 32-qubit (and a 40-qubit) Trotterized transverse-field chain — rx
 * layers interleaved with cx/rz(0.17)/cx nearest-neighbour couplers, so
 * the state is genuinely non-Clifford but carries little entanglement —
 * with a SWAP assertion of the {|00>, |11>} subspace on the last two
 * chain qubits (one ancilla, mid-circuit measure + reset: the shape
 * that kills every terminal fast path), measured at 4096 shots:
 *
 *  - auto routing must select the MPS backend at both widths,
 *  - the 32q MPS run must finish 4096 shots in seconds and beat the
 *    extrapolated forced-statevector cost by >= 100x,
 *  - MPS and statevector counts must be chi-square indistinguishable
 *    at an overlapping width where both actually run.
 *
 * Forced statevector would hold 2^33 (resp. 2^41) amplitudes — 128 GB
 * and 32 TB — so it cannot run at the acceptance widths at all. It is
 * measured on the identical workload shape at 20 qubits and
 * extrapolated by the 2^n amplitude-vector scaling times the
 * instruction-count ratio (per-shot suffix replay and the one-off
 * prefix evolution both scale with the amplitude count), which the
 * JSON records explicitly. The 14-qubit block runs BOTH backends at
 * the full 4096 shots and compares their histograms with an equal-N
 * two-sample chi-square test (rare cells pooled), with no
 * extrapolation and no reference-is-exact approximation.
 *
 * Writes the record to argv[1] when that is not an option, and prints
 * it to stdout otherwise (bench::emitRecord).
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/router.hpp"
#include "baselines/chi_square.hpp"
#include "bench_util.hpp"
#include "core/asserted_program.hpp"
#include "core/state_set.hpp"
#include "linalg/states.hpp"

namespace
{

using namespace qa;

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point start, Clock::time_point stop)
{
    return std::chrono::duration<double, std::milli>(stop - start).count();
}

/**
 * Measurement-free Trotterized transverse-field chain: an rx layer,
 * then `layers` rounds of nearest-neighbour cx/rz(0.17)/cx couplers
 * followed by another rx layer. Non-Clifford everywhere, but the weak
 * couplers keep the Schmidt rank across every cut small — the regime
 * the MPS backend exists for.
 */
QuantumCircuit
trotterGates(int n, int layers)
{
    QuantumCircuit qc(n, 0);
    for (int q = 0; q < n; ++q) qc.rx(q, 0.30 + 0.01 * q);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q + 1 < n; ++q) {
            qc.cx(q, q + 1);
            qc.rz(q + 1, 0.17);
            qc.cx(q, q + 1);
        }
        for (int q = 0; q < n; ++q) qc.rx(q, 0.21);
    }
    return qc;
}

/**
 * Trotter chain with a SWAP assertion that the last two chain qubits
 * lie in the {|00>, |11>} subspace (they stay near |00> under the
 * small-angle drive, so the assertion mostly passes), then terminal
 * measurement of the program register. The ancilla lands at site n of
 * the MPS chain; the assertion fragment is lowered to arity <= 2 gates
 * that SWAP-route onto the chain.
 */
AssertedProgram
trotterSwapJob(int n, int layers)
{
    AssertedProgram prog(trotterGates(n, layers));
    const StateSet subspace = StateSet::approximate(
        {CVector::basisState(4, 0), CVector::basisState(4, 3)});
    prog.assertState({n - 2, n - 1}, subspace, AssertionDesign::kSwap);
    prog.measureProgram();
    return prog;
}

struct TimedRun
{
    double ms = 0.0;
    int shots = 0;
    double trunc_error = 0.0;
    Counts counts;
};

TimedRun
timedRun(const QuantumCircuit& circuit, BackendRequest request, int shots,
         uint64_t seed, int threads = 1)
{
    SimOptions options;
    options.shots = shots;
    options.seed = seed;
    options.backend = request;
    options.num_threads = threads;
    const auto start = Clock::now();
    const auto prepared = backend::prepareRouted(
        circuit, options, backend::route(circuit, options));
    TimedRun out;
    out.counts = backend::runPrepared(*prepared, options);
    out.ms = elapsedMs(start, Clock::now());
    out.shots = shots;
    out.trunc_error = prepared->truncationError();
    return out;
}

/**
 * Equal-N two-sample chi-square test of two sampled histograms:
 * chi2 = sum (O1 - O2)^2 / (O1 + O2) over the union of cells, which is
 * correctly calibrated when both samples carry sampling noise (unlike
 * treating one histogram as the exact distribution). Cells whose
 * combined count is below `pool_below` are pooled into one tail cell so
 * the asymptotic chi-square approximation holds.
 */
double
twoSamplePValue(const Counts& a, const Counts& b, long pool_below = 10)
{
    std::vector<std::string> keys;
    for (const auto& [bits, n] : a.map) keys.push_back(bits);
    for (const auto& [bits, n] : b.map) {
        if (a.map.find(bits) == a.map.end()) keys.push_back(bits);
    }
    double statistic = 0.0;
    int cells = 0;
    double tail_a = 0.0, tail_b = 0.0;
    for (const std::string& key : keys) {
        const auto ia = a.map.find(key);
        const auto ib = b.map.find(key);
        const double oa = ia == a.map.end() ? 0.0 : double(ia->second);
        const double ob = ib == b.map.end() ? 0.0 : double(ib->second);
        if (oa + ob < double(pool_below)) {
            tail_a += oa;
            tail_b += ob;
            continue;
        }
        statistic += (oa - ob) * (oa - ob) / (oa + ob);
        ++cells;
    }
    if (tail_a + tail_b > 0.0) {
        statistic +=
            (tail_a - tail_b) * (tail_a - tail_b) / (tail_a + tail_b);
        ++cells;
    }
    if (cells < 2) return 1.0;
    return chiSquareSurvival(statistic, cells - 1);
}

} // namespace

int
main(int argc, char** argv)
{
    const int kShots = 4096;
    const int kLayers = 2;
    const uint64_t kSeed = 20260808;
    bool ok = true;

    // ----- Acceptance workload: 32q Trotter chain + SWAP assertion ----
    const AssertedProgram job32 = trotterSwapJob(32, kLayers);
    const QuantumCircuit& qc32 = job32.circuit();
    const backend::BackendChoice choice32 =
        backend::routeShots(qc32, SimOptions{});
    std::printf("Trotter-32 + SWAP assertion: %d qubits, %zu "
                "instructions\n",
                qc32.numQubits(), qc32.instructions().size());
    std::printf("auto route: %s (%s)\n", backendName(choice32.backend),
                choice32.reason.c_str());
    std::printf("entanglement width %d, effective chi %d, truncation "
                "bound %.3g\n",
                choice32.mps_ent_width, choice32.mps_chi,
                choice32.mps_trunc_bound);
    if (choice32.backend != BackendKind::kMps) {
        std::printf("FAIL: router did not select the MPS backend\n");
        ok = false;
    }

    const TimedRun mps32 =
        timedRun(qc32, BackendRequest::kAuto, kShots, kSeed);
    std::printf("mps: %d shots in %.1f ms (truncation error %.3g)\n",
                kShots, mps32.ms, mps32.trunc_error);
    if (mps32.ms > 60000.0) {
        std::printf("FAIL: 32q MPS run did not finish in seconds\n");
        ok = false;
    }

    // Forced statevector on the identical workload shape at 20 qubits
    // (21 with the ancilla): measured, then extrapolated to the
    // acceptance widths by the 2^n amplitude scaling times the
    // instruction-count ratio. 2^33 amplitudes would need 128 GB, so
    // the 32q dense run physically cannot be timed directly.
    const AssertedProgram job20 = trotterSwapJob(20, kLayers);
    const QuantumCircuit& qc20 = job20.circuit();
    const int sv_shots = 64;
    const TimedRun sv20 = timedRun(qc20, BackendRequest::kStatevector,
                                   sv_shots, kSeed);
    const double ops20 = double(qc20.instructions().size());
    const double ops32 = double(qc32.instructions().size());
    const double sv32_extrapolated_ms = sv20.ms *
                                        (double(kShots) / sv_shots) *
                                        (ops32 / ops20) *
                                        std::ldexp(1.0, 32 - 20);
    const double speedup32 = sv32_extrapolated_ms / mps32.ms;
    std::printf("statevector @20q: %d shots in %.1f ms "
                "(extrapolated to 32q, %d shots: %.3g ms)\n",
                sv_shots, sv20.ms, kShots, sv32_extrapolated_ms);
    std::printf("speedup (extrapolated): %.3gx\n", speedup32);
    if (speedup32 < 100.0) {
        std::printf("FAIL: below the 100x acceptance bar\n");
        ok = false;
    }

    // ----- 40-qubit variant: same chain, deeper into MPS territory ----
    const AssertedProgram job40 = trotterSwapJob(40, kLayers);
    const QuantumCircuit& qc40 = job40.circuit();
    const backend::BackendChoice choice40 =
        backend::routeShots(qc40, SimOptions{});
    if (choice40.backend != BackendKind::kMps) {
        std::printf("FAIL: 40q job did not route to MPS\n");
        ok = false;
    }
    const TimedRun mps40 =
        timedRun(qc40, BackendRequest::kAuto, kShots, kSeed);
    const double ops40 = double(qc40.instructions().size());
    const double sv40_extrapolated_ms = sv20.ms *
                                        (double(kShots) / sv_shots) *
                                        (ops40 / ops20) *
                                        std::ldexp(1.0, 40 - 20);
    std::printf("Trotter-40: mps %d shots in %.1f ms, statevector "
                "extrapolated %.3g ms\n",
                kShots, mps40.ms, sv40_extrapolated_ms);

    // ----- Overlap width: both backends at full shots, no tricks ------
    const AssertedProgram job14 = trotterSwapJob(14, kLayers);
    const QuantumCircuit& qc14 = job14.circuit();
    SimOptions forced14;
    forced14.backend = BackendRequest::kMps;
    const backend::BackendChoice choice14 =
        backend::routeShots(qc14, forced14);
    const TimedRun mps14 =
        timedRun(qc14, BackendRequest::kMps, kShots, kSeed);
    const TimedRun sv14 = timedRun(qc14, BackendRequest::kStatevector,
                                   kShots, kSeed + 1);
    const double p14 = twoSamplePValue(mps14.counts, sv14.counts);
    std::printf("Trotter-14 full fair: mps %.1f ms, statevector %.1f "
                "ms, two-sample chi-square p %.4f\n",
                mps14.ms, sv14.ms, p14);
    if (p14 <= 1e-4) {
        std::printf("FAIL: backend counts are distinguishable\n");
        ok = false;
    }
    (void)choice14;

    std::ostringstream json;
    json.precision(6);
    json << std::fixed;
    json << "{\n"
         << " \"description\": \"PR 10 perf record: bond-dimension-"
            "capped MPS backend on the wide low-entanglement workload "
            "class. The acceptance workload is a 32-qubit (and 40-"
            "qubit) Trotterized transverse-field chain — rx layers "
            "plus cx/rz/cx nearest-neighbour couplers, non-Clifford "
            "throughout — with a SWAP assertion of the {|00>,|11>} "
            "subspace on the last two chain qubits (one ancilla, mid-"
            "circuit measure+reset) at 4096 shots. Forced statevector "
            "would hold 2^33 (resp. 2^41) amplitudes, so it is "
            "measured on the identical shape at 20 qubits and "
            "extrapolated by the 2^n amplitude scaling times the "
            "instruction-count ratio. The trotter14 block runs both "
            "backends at the full 4096 shots and compares histograms "
            "with an equal-N two-sample chi-square test (rare cells "
            "pooled), no extrapolation.\",\n"
         << " \"acceptance\": {\n"
         << "  \"workload\": \"32-qubit Trotter chain + SWAP assertion "
            "of the {|00>,|11>} subspace on qubits {30,31}, 4096 "
            "shots\",\n"
         << "  \"auto_routed_backend\": \""
         << backendName(choice32.backend) << "\",\n"
         << "  \"entanglement_width\": " << choice32.mps_ent_width
         << ",\n"
         << "  \"effective_chi\": " << choice32.mps_chi << ",\n"
         << "  \"truncation_error\": " << std::scientific
         << mps32.trunc_error << std::fixed << ",\n"
         << "  \"mps_4096_shots_ms\": " << mps32.ms << ",\n"
         << "  \"forced_statevector_" << sv_shots
         << "_shots_at_20q_ms\": " << sv20.ms << ",\n"
         << "  \"statevector_extrapolated_4096_shots_ms\": "
         << std::scientific << sv32_extrapolated_ms << std::fixed
         << ",\n"
         << "  \"speedup_extrapolated\": " << std::scientific
         << speedup32 << std::fixed << ",\n"
         << "  \"chi_square_p_value\": " << p14 << ",\n"
         << "  \"pass\": " << (ok ? "true" : "false") << "\n"
         << " },\n"
         << " \"trotter40\": {\n"
         << "  \"workload\": \"40-qubit Trotter chain + SWAP assertion "
            "of the {|00>,|11>} subspace on qubits {38,39}, 4096 "
            "shots\",\n"
         << "  \"auto_routed_backend\": \""
         << backendName(choice40.backend) << "\",\n"
         << "  \"mps_4096_shots_ms\": " << mps40.ms << ",\n"
         << "  \"truncation_error\": " << std::scientific
         << mps40.trunc_error << std::fixed << ",\n"
         << "  \"statevector_extrapolated_4096_shots_ms\": "
         << std::scientific << sv40_extrapolated_ms << std::fixed
         << "\n"
         << " },\n"
         << " \"trotter14_full_fair\": {\n"
         << "  \"workload\": \"14-qubit Trotter chain + SWAP assertion, "
            "4096 shots on both backends\",\n"
         << "  \"mps_ms\": " << mps14.ms << ",\n"
         << "  \"statevector_ms\": " << sv14.ms << ",\n"
         << "  \"two_sample_chi_square_p_value\": " << p14 << "\n"
         << " }\n"
         << "}\n";

    bench::emitRecord(argc, argv, json.str());
    return ok ? 0 : 1;
}
