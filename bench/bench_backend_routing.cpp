/**
 * @file
 * PR 5 acceptance bench: backend routing on the Clifford workload
 * class. The acceptance job is a 20-qubit GHZ preparation with a SWAP
 * assertion of the {|00>, |11>} marginal on qubits {0, 1} (one ancilla,
 * 21 qubits, mid-circuit measure + reset — the shape that kills the
 * statevector terminal fast path), measured at 4096 shots:
 *
 *  - auto routing must select the stabilizer backend,
 *  - stabilizer wall-clock must beat forced-statevector by >= 10x,
 *  - the two backends' counts must be chi-square indistinguishable.
 *
 * Forced statevector replays 2^21 amplitudes per shot (~300 ms/shot),
 * so the full 4096-shot run would take ~20 minutes; it is measured at a
 * reduced shot count and extrapolated linearly (per-shot cost is
 * constant: every shot replays the same suffix), which the JSON records
 * explicitly. A 12-qubit variant runs BOTH backends at the full 4096
 * shots as the honest end-to-end comparison with no extrapolation.
 *
 * Writes the record to BENCH_PR5.json (or argv[1]).
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "algos/states.hpp"
#include "backend/backend.hpp"
#include "baselines/chi_square.hpp"
#include "core/asserted_program.hpp"
#include "core/state_set.hpp"
#include "linalg/states.hpp"
#include "synth/state_prep.hpp"

namespace
{

using namespace qa;
using namespace qa::algos;

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point start, Clock::time_point stop)
{
    return std::chrono::duration<double, std::milli>(stop - start).count();
}

/**
 * GHZ-n preparation with a SWAP assertion of the {|00>, |11>} coordinate
 * subspace on qubits {0, 1} (the exact 2-qubit marginal of GHZ), then
 * terminal measurement of the program register. Fully Clifford: the
 * basis change is X/CNOT-only, so the whole job is tableau-simulable.
 */
AssertedProgram
ghzSwapJob(int n)
{
    AssertedProgram prog(prepareState(ghzVector(n)));
    const StateSet marginal = StateSet::approximate(
        {CVector::basisState(4, 0), CVector::basisState(4, 3)});
    prog.assertState({0, 1}, marginal, AssertionDesign::kSwap);
    prog.measureProgram();
    return prog;
}

struct TimedRun
{
    double ms = 0.0;
    int shots = 0;
    Counts counts;
};

TimedRun
timedRun(const QuantumCircuit& circuit, BackendRequest request, int shots,
         uint64_t seed)
{
    SimOptions options;
    options.shots = shots;
    options.seed = seed;
    options.backend = request;
    const auto start = Clock::now();
    const auto prepared = backend::prepareRouted(
        circuit, options, backend::route(circuit, options));
    TimedRun out;
    out.counts = backend::runPrepared(*prepared, options);
    out.ms = elapsedMs(start, Clock::now());
    out.shots = shots;
    return out;
}

/** Chi-square p-value of `observed` against `reference` frequencies. */
double
distributionPValue(const Counts& observed, const Counts& reference)
{
    std::vector<std::string> keys;
    for (const auto& [bits, n] : observed.map) keys.push_back(bits);
    for (const auto& [bits, n] : reference.map) {
        if (observed.map.find(bits) == observed.map.end()) {
            keys.push_back(bits);
        }
    }
    std::vector<long> obs;
    std::vector<double> expected;
    for (const std::string& key : keys) {
        const auto o = observed.map.find(key);
        const auto r = reference.map.find(key);
        obs.push_back(o == observed.map.end() ? 0 : long(o->second));
        expected.push_back(
            r == reference.map.end()
                ? 0.0
                : double(r->second) / double(reference.shots));
    }
    return chiSquareTest(obs, expected).p_value;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_PR5.json";
    const int kShots = 4096;
    const uint64_t kSeed = 20260806;
    bool ok = true;

    // ----- Acceptance workload: GHZ-20 + SWAP assertion ---------------
    const AssertedProgram ghz20 = ghzSwapJob(20);
    const QuantumCircuit& qc20 = ghz20.circuit();
    const backend::BackendChoice choice =
        backend::routeShots(qc20, SimOptions{});
    std::printf("GHZ-20 + SWAP assertion: %d qubits, %zu instructions\n",
                qc20.numQubits(), qc20.instructions().size());
    std::printf("auto route: %s (%s)\n", backendName(choice.backend),
                choice.reason.c_str());
    if (choice.backend != BackendKind::kStabilizer) {
        std::printf("FAIL: router did not select the stabilizer backend\n");
        ok = false;
    }

    const TimedRun stab20 =
        timedRun(qc20, BackendRequest::kAuto, kShots, kSeed);
    // Forced statevector at reduced shots; per-shot cost is flat (each
    // shot replays the identical 2^21-amplitude suffix), so the
    // full-4096 cost is shots-linear. Recorded as an extrapolation.
    const int sv20_shots = 32;
    const TimedRun sv20 = timedRun(qc20, BackendRequest::kStatevector,
                                   sv20_shots, kSeed);
    const double sv20_extrapolated_ms =
        sv20.ms * double(kShots) / double(sv20_shots);
    const double speedup20 = sv20_extrapolated_ms / stab20.ms;
    std::printf("stabilizer: %d shots in %.1f ms\n", kShots, stab20.ms);
    std::printf("statevector: %d shots in %.1f ms "
                "(extrapolated %d shots: %.0f ms)\n",
                sv20_shots, sv20.ms, kShots, sv20_extrapolated_ms);
    std::printf("speedup (extrapolated): %.0fx\n", speedup20);

    const double p20 = distributionPValue(sv20.counts, stab20.counts);
    std::printf("chi-square p (sv@%d vs stab@%d): %.4f\n", sv20_shots,
                kShots, p20);

    // ----- Full-fair variant: GHZ-12, both backends at 4096 -----------
    const AssertedProgram ghz12 = ghzSwapJob(12);
    const QuantumCircuit& qc12 = ghz12.circuit();
    const TimedRun stab12 =
        timedRun(qc12, BackendRequest::kAuto, kShots, kSeed);
    const TimedRun sv12 = timedRun(qc12, BackendRequest::kStatevector,
                                   kShots, kSeed);
    const double speedup12 = sv12.ms / stab12.ms;
    const double p12 = distributionPValue(sv12.counts, stab12.counts);
    std::printf("GHZ-12 full fair: stabilizer %.1f ms, statevector "
                "%.1f ms, speedup %.0fx, chi-square p %.4f\n",
                stab12.ms, sv12.ms, speedup12, p12);

    if (speedup20 < 10.0 || speedup12 < 10.0) {
        std::printf("FAIL: below the 10x acceptance bar\n");
        ok = false;
    }
    if (p20 <= 1e-4 || p12 <= 1e-4) {
        std::printf("FAIL: backend counts are distinguishable\n");
        ok = false;
    }

    std::ostringstream json;
    json.precision(6);
    json << std::fixed;
    json << "{\n"
         << " \"description\": \"PR 5 perf record: pluggable "
            "simulation-backend subsystem with Clifford fast-path "
            "routing. The acceptance workload is a 20-qubit GHZ "
            "preparation with a SWAP assertion of the {|00>,|11>} "
            "marginal on qubits {0,1} (21 qubits, mid-circuit "
            "measure+reset, fully Clifford) at 4096 shots. "
            "'forced_statevector' replays 2^21 amplitudes per shot, "
            "so it is measured at 32 shots and extrapolated linearly "
            "to 4096 (per-shot cost is constant); the ghz12 block is "
            "a full-fair run of both backends at 4096 shots with no "
            "extrapolation. Chi-square p-values test the two "
            "backends' counts for distributional agreement.\",\n"
         << " \"acceptance\": {\n"
         << "  \"workload\": \"20-qubit GHZ + SWAP assertion of the "
            "qubits {0,1} marginal, 4096 shots\",\n"
         << "  \"auto_routed_backend\": \""
         << backendName(choice.backend) << "\",\n"
         << "  \"stabilizer_4096_shots_ms\": " << stab20.ms << ",\n"
         << "  \"forced_statevector_" << sv20_shots
         << "_shots_ms\": " << sv20.ms << ",\n"
         << "  \"forced_statevector_extrapolated_4096_shots_ms\": "
         << sv20_extrapolated_ms << ",\n"
         << "  \"speedup_extrapolated\": " << speedup20 << ",\n"
         << "  \"chi_square_p_value\": " << p20 << ",\n"
         << "  \"pass\": " << (ok ? "true" : "false") << "\n"
         << " },\n"
         << " \"ghz12_full_fair\": {\n"
         << "  \"workload\": \"12-qubit GHZ + SWAP assertion of the "
            "qubits {0,1} marginal, 4096 shots on both backends\",\n"
         << "  \"stabilizer_ms\": " << stab12.ms << ",\n"
         << "  \"statevector_ms\": " << sv12.ms << ",\n"
         << "  \"speedup\": " << speedup12 << ",\n"
         << "  \"chi_square_p_value\": " << p12 << "\n"
         << " }\n"
         << "}\n";

    std::ofstream out(out_path);
    out << json.str();
    out.close();
    std::printf("wrote %s\n", out_path.c_str());
    return ok ? 0 : 1;
}
