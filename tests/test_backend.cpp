/**
 * @file
 * Backend subsystem tests: circuit/noise analysis, Pauli-channel
 * recognition, matrix-level Clifford recognition against dense
 * simulation, router capability edges, cross-backend distributional
 * equivalence (chi-square at 4096 shots, deterministic seeds),
 * per-backend bit-determinism across thread counts, resolved-backend
 * cache keys, and insertion-order robustness of the Counts helpers.
 */
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "algos/states.hpp"
#include "backend/backend.hpp"
#include "backend/router.hpp"
#include "baselines/chi_square.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/runner.hpp"
#include "serve/job.hpp"
#include "sim/density.hpp"
#include "sim/engine.hpp"
#include "stab/clifford.hpp"
#include "stab/tableau.hpp"
#include "synth/state_prep.hpp"

namespace qa
{
namespace
{

using namespace algos;
using backend::analyzeCircuit;
using backend::BackendChoice;
using backend::CircuitClass;

/** GHZ state preparation with terminal measurement of every qubit. */
QuantumCircuit
ghzCircuit(int n)
{
    QuantumCircuit qc(n, n);
    qc.h(0);
    for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
    qc.measureAll();
    return qc;
}

/**
 * Chi-square check of observed counts against the empirical frequencies
 * of a reference histogram (cells unioned over both). Loose threshold:
 * these are sanity gates against gross distribution bugs, not precision
 * statistics.
 */
void
expectSameDistribution(const Counts& observed, const Counts& reference)
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
    const ChiSquareResult chi = chiSquareTest(obs, expected);
    EXPECT_GT(chi.p_value, 1e-4)
        << "distributions differ: chi2=" << chi.statistic
        << " dof=" << chi.dof;
}

Counts
runOn(BackendKind kind, const QuantumCircuit& qc, const NoiseModel* noise,
      int shots = 4096, int threads = 1)
{
    SimOptions options;
    options.shots = shots;
    options.seed = 321;
    options.noise = noise;
    options.num_threads = threads;
    return backend::backendFor(kind).runShots(qc, options);
}

// ---------------------------------------------------------------------
// Analyzer

TEST(AnalyzerTest, GhzIsTerminalClifford)
{
    const backend::CircuitProfile profile = analyzeCircuit(ghzCircuit(4));
    EXPECT_EQ(profile.klass, CircuitClass::kClifford);
    EXPECT_EQ(profile.non_clifford_gates, 0);
    EXPECT_TRUE(profile.terminal_measure_only);
    EXPECT_EQ(profile.terminal_measures.size(), 4u);
    EXPECT_EQ(profile.gates, 4u);
    EXPECT_EQ(profile.measures, 4u);
}

TEST(AnalyzerTest, TGateCountsAsNonClifford)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.t(0);
    qc.cx(0, 1);
    qc.measureAll();
    const backend::CircuitProfile profile = analyzeCircuit(qc);
    EXPECT_EQ(profile.klass, CircuitClass::kCliffordPlusFew);
    EXPECT_EQ(profile.non_clifford_gates, 1);
    ASSERT_EQ(profile.non_clifford_names.size(), 1u);
    EXPECT_EQ(profile.non_clifford_names[0], "t");
}

TEST(AnalyzerTest, CliffordAngleRotationRecognizedByMatrix)
{
    // rz(pi/2) is S up to global phase: Clifford, but only the matrix
    // recognizer can know that — the name check cannot.
    QuantumCircuit qc(1, 1);
    qc.rz(0, M_PI / 2.0);
    qc.measureAll();
    EXPECT_EQ(analyzeCircuit(qc).non_clifford_gates, 0);

    QuantumCircuit generic(1, 1);
    generic.rz(0, 0.3);
    generic.measureAll();
    EXPECT_EQ(analyzeCircuit(generic).non_clifford_gates, 1);
}

TEST(AnalyzerTest, MidCircuitMeasureAndResetBreakTerminalShape)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.measure(0, 0);
    qc.cx(0, 1);
    qc.measure(1, 1);
    EXPECT_FALSE(analyzeCircuit(qc).terminal_measure_only);

    QuantumCircuit with_reset(1, 1);
    with_reset.h(0);
    with_reset.reset(0);
    with_reset.measure(0, 0);
    EXPECT_FALSE(analyzeCircuit(with_reset).terminal_measure_only);
}

TEST(AnalyzerTest, PauliChannelRecognition)
{
    const auto depol =
        backend::recognizePauliChannel(KrausChannel::depolarizing(0.1));
    ASSERT_TRUE(depol.has_value());
    ASSERT_EQ(depol->weights.size(), 4u);
    double total = 0.0;
    for (double w : depol->weights) total += w;
    EXPECT_NEAR(total, 1.0, 1e-9);

    const auto flip =
        backend::recognizePauliChannel(KrausChannel::bitFlip(0.25));
    ASSERT_TRUE(flip.has_value());
    ASSERT_EQ(flip->weights.size(), 2u);

    EXPECT_FALSE(
        backend::recognizePauliChannel(KrausChannel::amplitudeDamping(0.1))
            .has_value());
    EXPECT_FALSE(
        backend::recognizePauliChannel(KrausChannel::phaseDamping(0.1))
            .has_value());
}

TEST(AnalyzerTest, NoiseProfiles)
{
    EXPECT_FALSE(backend::analyzeNoise(nullptr).enabled);

    const NoiseModel depol = NoiseModel::depolarizing(1e-3, 1e-2);
    const backend::NoiseProfile dp = backend::analyzeNoise(&depol);
    EXPECT_TRUE(dp.enabled);
    EXPECT_TRUE(dp.kraus);
    EXPECT_TRUE(dp.pauli_only);

    const NoiseModel melbourne = NoiseModel::ibmqMelbourneLike();
    const backend::NoiseProfile mp = backend::analyzeNoise(&melbourne);
    EXPECT_TRUE(mp.enabled);
    EXPECT_TRUE(mp.kraus);
    EXPECT_FALSE(mp.pauli_only); // amplitude damping is not a Pauli mix
}

TEST(AnalyzerTest, AnalysisCarriesNoiseAndTerminalMeasures)
{
    // What a job's shots need beyond the shot plan: the terminal
    // (qubit, clbit) pairs and the noise profile, from one analysis.
    QuantumCircuit terminal(3, 3);
    terminal.h(0);
    terminal.cx(0, 1);
    terminal.barrier();
    terminal.measureAll();
    const backend::CircuitAnalysis noiseless =
        backend::analyzeForRouting(terminal, SimOptions{});
    ASSERT_EQ(noiseless.profile.terminal_measures.size(), 3u);
    EXPECT_EQ(noiseless.profile.terminal_measures[0],
              (std::pair<int, int>{0, 0}));
    EXPECT_FALSE(noiseless.noise.kraus);
    EXPECT_FALSE(noiseless.noise.readout);

    QuantumCircuit mid(2, 2);
    mid.h(0);
    mid.measure(0, 0);
    mid.cx(0, 1);
    mid.measure(1, 1);
    EXPECT_TRUE(backend::analyzeForRouting(mid, SimOptions{})
                    .profile.terminal_measures.empty());

    SimOptions options;
    const NoiseModel depol = NoiseModel::depolarizing(0.0, 0.05);
    options.noise = &depol;
    const backend::CircuitAnalysis pauli =
        backend::analyzeForRouting(terminal, options);
    EXPECT_TRUE(pauli.noise.kraus);
    EXPECT_TRUE(pauli.noise.pauli_1q.empty());
    ASSERT_EQ(pauli.noise.pauli_2q.size(), 1u);
    EXPECT_EQ(pauli.noise.pauli_2q[0].weights.size(), 4u);

    const NoiseModel melbourne = NoiseModel::ibmqMelbourneLike();
    options.noise = &melbourne;
    const backend::CircuitAnalysis kraus =
        backend::analyzeForRouting(terminal, options);
    EXPECT_TRUE(kraus.noise.kraus);
    EXPECT_FALSE(kraus.noise.pauli_only);
    EXPECT_TRUE(kraus.noise.pauli_1q.empty());
    EXPECT_TRUE(kraus.noise.pauli_2q.empty());

    NoiseModel readout;
    readout.readout_p01 = 0.02;
    readout.readout_p10 = 0.05;
    options.noise = &readout;
    const backend::CircuitAnalysis classical =
        backend::analyzeForRouting(terminal, options);
    EXPECT_FALSE(classical.noise.kraus);
    EXPECT_TRUE(classical.noise.readout);
}

// ---------------------------------------------------------------------
// Clifford recognition vs dense simulation

TEST(CliffordActionTest, RecognizedGatesMatchDenseEvolution)
{
    // A Clifford-angle circuit whose rotations are classified from
    // their matrices: evolve it both on the tableau (via cliffordAction)
    // and on the dense statevector, then compare the states.
    QuantumCircuit qc(3);
    qc.h(0);
    qc.rz(0, M_PI / 2.0);  // S up to phase
    qc.cx(0, 1);
    qc.ry(1, M_PI / 2.0);  // maps Z -> X: Clifford
    qc.rx(2, M_PI);        // X up to phase
    qc.cz(1, 2);
    qc.sdg(1);

    StabilizerTableau tableau(3);
    Statevector dense(3);
    for (const Instruction& instr : qc.instructions()) {
        const auto action = cliffordAction(instr);
        ASSERT_TRUE(action.has_value()) << instr.name;
        tableau.applyClifford(*action, instr.qubits);
        dense.applyGate(instr);
    }
    const CVector from_tableau = tableau.toStatevector();
    const CVector& from_dense = dense.amplitudes();
    // Compare up to global phase via |<a|b>| = 1.
    EXPECT_NEAR(std::abs(from_tableau.inner(from_dense)), 1.0, 1e-9);
}

// ---------------------------------------------------------------------
// Router capability edges

TEST(RouterTest, CliffordCircuitRoutesToStabilizer)
{
    const BackendChoice choice =
        backend::routeShots(ghzCircuit(4), SimOptions{});
    EXPECT_EQ(choice.backend, BackendKind::kStabilizer);
    EXPECT_TRUE(choice.capable);
    EXPECT_FALSE(choice.explicit_request);
    EXPECT_EQ(choice.klass, CircuitClass::kClifford);
}

TEST(RouterTest, TGateFallsBackToStatevector)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.t(0);
    qc.cx(0, 1);
    qc.measureAll();
    const BackendChoice choice = backend::routeShots(qc, SimOptions{});
    EXPECT_EQ(choice.backend, BackendKind::kStatevector);
    EXPECT_TRUE(choice.capable);
    EXPECT_EQ(choice.non_clifford_gates, 1);
}

TEST(RouterTest, PauliNoiseKeepsStabilizer)
{
    const NoiseModel depol = NoiseModel::depolarizing(1e-3, 1e-2);
    SimOptions options;
    options.noise = &depol;
    const BackendChoice choice =
        backend::routeShots(ghzCircuit(4), options);
    EXPECT_EQ(choice.backend, BackendKind::kStabilizer);
}

TEST(RouterTest, NonPauliNoiseForcesDensityOnTerminalCircuit)
{
    const NoiseModel melbourne = NoiseModel::ibmqMelbourneLike();
    SimOptions options;
    options.noise = &melbourne;
    options.shots = 4096;
    const BackendChoice choice =
        backend::routeShots(ghzCircuit(4), options);
    EXPECT_EQ(choice.backend, BackendKind::kDensityMatrix);
    EXPECT_TRUE(choice.capable);
}

TEST(RouterTest, KrausNoiseThatNoGateDrawsKeepsTerminalSampling)
{
    // Amplitude damping on two-qubit gates only, on a circuit of
    // one-qubit gates: no gate draws a channel, so the statevector
    // evolves once and samples every shot, which beats evolving 4^n.
    QuantumCircuit qc(6, 6);
    for (int q = 0; q < 6; ++q) {
        qc.h(q);
        qc.t(q);
    }
    qc.measureAll();
    NoiseModel noise;
    noise.noise_2q.push_back(KrausChannel::amplitudeDamping(0.02));
    SimOptions options;
    options.noise = &noise;
    options.shots = 1024;
    const backend::Route routed = backend::route(qc, options);
    EXPECT_EQ(routed.choice.backend, BackendKind::kStatevector);
    EXPECT_TRUE(routed.choice.capable);
    EXPECT_TRUE(routed.analysis.plan.terminal_sampling);
}

TEST(RouterTest, CapabilityWidthsAreTheEnginesOwn)
{
    // The router refuses a width exactly where the engine would, and the
    // engine refuses it before allocating its state.
    EXPECT_THROW(Statevector(kStatevectorMaxQubits + 1), UserError);
    EXPECT_THROW(StabilizerTableau(kTableauMaxQubits + 1), UserError);
    EXPECT_THROW(DensityState(13), UserError);

    const auto routed = [](int qubits, BackendRequest request) {
        QuantumCircuit qc(qubits, 1);
        qc.h(0);
        qc.measure(0, 0);
        SimOptions options;
        options.backend = request;
        return backend::routeShots(qc, options);
    };
    EXPECT_TRUE(
        routed(kStatevectorMaxQubits, BackendRequest::kStatevector).capable);
    const BackendChoice wide =
        routed(kStatevectorMaxQubits + 1, BackendRequest::kStatevector);
    EXPECT_FALSE(wide.capable);
    EXPECT_NE(wide.reason.find("25 qubits exceed the 24-qubit statevector"),
              std::string::npos)
        << wide.reason;
    EXPECT_TRUE(
        routed(kTableauMaxQubits, BackendRequest::kStabilizer).capable);
    EXPECT_FALSE(
        routed(kTableauMaxQubits + 1, BackendRequest::kStabilizer).capable);
}

TEST(RouterTest, MidCircuitMeasurementExcludesDensity)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.t(0);
    qc.measure(0, 0);
    qc.cx(0, 1);
    qc.measure(1, 1);
    const NoiseModel melbourne = NoiseModel::ibmqMelbourneLike();
    SimOptions options;
    options.noise = &melbourne;
    const BackendChoice choice = backend::routeShots(qc, options);
    EXPECT_EQ(choice.backend, BackendKind::kStatevector);
}

TEST(RouterTest, ExplicitRequestIsHonoredAndValidated)
{
    QuantumCircuit t_circuit(1, 1);
    t_circuit.t(0);
    t_circuit.measureAll();

    SimOptions options;
    options.backend = BackendRequest::kStatevector;
    BackendChoice choice = backend::routeShots(ghzCircuit(3), options);
    EXPECT_EQ(choice.backend, BackendKind::kStatevector);
    EXPECT_TRUE(choice.explicit_request);
    EXPECT_TRUE(choice.capable);

    options.backend = BackendRequest::kStabilizer;
    choice = backend::routeShots(t_circuit, options);
    EXPECT_EQ(choice.backend, BackendKind::kStabilizer);
    EXPECT_TRUE(choice.explicit_request);
    EXPECT_FALSE(choice.capable);
    EXPECT_NE(choice.reason.find("non-Clifford"), std::string::npos);

    // prepareRouted surfaces the incapable explicit request as a typed
    // kBadRequest instead of running it.
    try {
        backend::prepareRouted(t_circuit, options,
                               backend::route(t_circuit, options));
        FAIL() << "expected kBadRequest";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
    }

    QuantumCircuit mid(2, 2);
    mid.h(0);
    mid.measure(0, 0);
    mid.cx(0, 1);
    mid.measure(1, 1);
    options.backend = BackendRequest::kDensityMatrix;
    choice = backend::routeShots(mid, options);
    EXPECT_EQ(choice.backend, BackendKind::kDensityMatrix);
    EXPECT_FALSE(choice.capable);
}

TEST(RouterTest, RoutingIsDeterministic)
{
    SimOptions options;
    options.shots = 4096;
    const BackendChoice a = backend::routeShots(ghzCircuit(5), options);
    for (int i = 0; i < 5; ++i) {
        const BackendChoice b =
            backend::routeShots(ghzCircuit(5), options);
        EXPECT_EQ(a.backend, b.backend);
        EXPECT_EQ(a.reason, b.reason);
    }
}

TEST(RouterTest, ExplainReportNamesTheChoice)
{
    const std::string report =
        backend::explainRouting(
            backend::route(ghzCircuit(4), SimOptions{}), SimOptions{});
    EXPECT_NE(report.find("chosen: stabilizer"), std::string::npos);
    EXPECT_NE(report.find("class: clifford"), std::string::npos);
}

/** One routing job of the pinned corpus below. */
struct RoutingJob
{
    const char* name;
    const QuantumCircuit* circuit;
    const NoiseModel* noise;
    int shots;
    BackendRequest request;
    int chi;
};

TEST(RouterTest, ExplainMatchesPinnedCorpus)
{
    // Every routing rule, every capability objection and every explicit
    // request, on circuits of at most 24 qubits whose Kraus noise (when
    // attached) reaches at least one gate. The digest covers the whole
    // explain report of each job, so any change to a decision, a reason
    // or an estimate printed there shows up.
    const QuantumCircuit ghz4 = ghzCircuit(4);

    QuantumCircuit ghz_mid(3, 3);
    ghz_mid.h(0);
    ghz_mid.cx(0, 1);
    ghz_mid.measure(1, 1);
    ghz_mid.reset(1);
    ghz_mid.cx(0, 2);
    ghz_mid.measure(0, 0);
    ghz_mid.measure(2, 2);

    QuantumCircuit t3(3, 3);
    t3.h(0);
    t3.t(0);
    t3.cx(0, 1);
    t3.rz(2, 0.3);
    t3.cx(1, 2);
    t3.measureAll();

    QuantumCircuit t3_mid(3, 3);
    t3_mid.h(0);
    t3_mid.t(0);
    t3_mid.measure(0, 0);
    t3_mid.cx(0, 1);
    t3_mid.reset(0);
    t3_mid.ry(2, 0.7);
    t3_mid.measure(1, 1);
    t3_mid.measure(2, 2);

    QuantumCircuit general10(10, 10);
    for (int q = 0; q < 10; ++q) {
        general10.ry(q, 0.1 + 0.05 * q);
        general10.t(q);
    }
    for (int q = 0; q + 1 < 10; ++q) general10.cx(q, q + 1);
    general10.measureAll();

    QuantumCircuit trotter24(24, 24);
    for (int q = 0; q < 24; ++q) trotter24.rx(q, 0.30 + 0.01 * q);
    for (int q = 0; q + 1 < 24; ++q) {
        trotter24.cx(q, q + 1);
        trotter24.rz(q + 1, 0.17);
        trotter24.cx(q, q + 1);
    }
    trotter24.measureAll();

    QuantumCircuit trotter24_mid(24, 24);
    for (int q = 0; q < 24; ++q) trotter24_mid.rx(q, 0.30 + 0.01 * q);
    for (int q = 0; q + 1 < 24; ++q) trotter24_mid.cx(q, q + 1);
    trotter24_mid.measure(0, 0);
    trotter24_mid.reset(0);
    for (int q = 0; q < 24; ++q) trotter24_mid.rz(q, 0.21);
    for (int q = 1; q < 24; ++q) trotter24_mid.measure(q, q);

    QuantumCircuit brick24(24, 24);
    for (int d = 0; d < 20; ++d) {
        for (int q = 0; q < 24; ++q) brick24.ry(q, 0.40 + 0.13 * q + 0.31 * d);
        for (int q = d % 2; q + 1 < 24; q += 2) brick24.cx(q, q + 1);
    }
    brick24.measureAll();

    QuantumCircuit wide_gate(5, 5);
    wide_gate.h(0);
    wide_gate.t(1);
    wide_gate.unitary(CMatrix::identity(16), {0, 1, 2, 3});
    wide_gate.cx(3, 4);
    wide_gate.measureAll();

    const NoiseModel depol = NoiseModel::depolarizing(1e-3, 1e-2);
    const NoiseModel melbourne = NoiseModel::ibmqMelbourneLike();
    NoiseModel readout;
    readout.readout_p01 = 0.02;
    readout.readout_p10 = 0.05;
    NoiseModel damping;
    damping.noise_1q.push_back(KrausChannel::amplitudeDamping(0.01));
    damping.noise_2q.push_back(KrausChannel::amplitudeDamping(0.02));
    NoiseModel flip_1q;
    flip_1q.noise_1q.push_back(KrausChannel::bitFlip(0.01));

    using R = BackendRequest;
    const std::vector<RoutingJob> jobs = {
        {"clifford", &ghz4, nullptr, 1024, R::kAuto, 64},
        {"clifford_pauli", &ghz4, &depol, 1024, R::kAuto, 64},
        {"clifford_readout", &ghz4, &readout, 1024, R::kAuto, 64},
        {"clifford_melbourne", &ghz4, &melbourne, 4096, R::kAuto, 64},
        {"clifford_melbourne_1shot", &ghz4, &melbourne, 1, R::kAuto, 64},
        {"clifford_mid_melbourne", &ghz_mid, &melbourne, 1024, R::kAuto, 64},
        {"clifford_mid_pauli", &ghz_mid, &depol, 1024, R::kAuto, 64},
        {"general", &t3, nullptr, 1024, R::kAuto, 64},
        {"general_melbourne", &t3, &melbourne, 1024, R::kAuto, 64},
        {"general_damping", &t3, &damping, 4096, R::kAuto, 64},
        {"general_flip", &t3, &flip_1q, 1024, R::kAuto, 64},
        {"general_mid_melbourne", &t3_mid, &melbourne, 1024, R::kAuto, 64},
        {"general_mid", &t3_mid, nullptr, 1024, R::kAuto, 64},
        {"wide10_melbourne", &general10, &melbourne, 1024, R::kAuto, 64},
        {"wide10", &general10, nullptr, 1024, R::kAuto, 64},
        {"trotter24", &trotter24, nullptr, 1024, R::kAuto, 64},
        {"trotter24_readout", &trotter24, &readout, 1024, R::kAuto, 64},
        {"trotter24_pauli", &trotter24, &depol, 1024, R::kAuto, 64},
        {"trotter24_mid", &trotter24_mid, nullptr, 256, R::kAuto, 64},
        {"brick24_chi64", &brick24, nullptr, 1024, R::kAuto, 64},
        {"brick24_chi1024", &brick24, nullptr, 1024, R::kAuto, 1024},
        {"wide_gate", &wide_gate, nullptr, 1024, R::kAuto, 64},
        {"force_sv", &ghz4, nullptr, 1024, R::kStatevector, 64},
        {"force_sv_pauli", &trotter24, &depol, 1024, R::kStatevector, 64},
        {"force_stab_t", &t3, nullptr, 1024, R::kStabilizer, 64},
        {"force_stab_melbourne", &ghz4, &melbourne, 1024, R::kStabilizer,
         64},
        {"force_dm_mid", &ghz_mid, nullptr, 1024, R::kDensityMatrix, 64},
        {"force_dm_wide", &general10, nullptr, 1024, R::kDensityMatrix, 64},
        {"force_dm_pauli", &t3, &depol, 1024, R::kDensityMatrix, 64},
        {"force_mps", &ghz4, nullptr, 1024, R::kMps, 64},
        {"force_mps_chi2", &trotter24, nullptr, 1024, R::kMps, 2},
        {"force_mps_kraus", &t3, &melbourne, 1024, R::kMps, 64},
        {"force_mps_wide_gate", &wide_gate, nullptr, 1024, R::kMps, 64},
    };

    HashStream digest(0x636f72707573ULL); // "corpus"
    std::string reports;
    for (const RoutingJob& job : jobs) {
        SimOptions options;
        options.shots = job.shots;
        options.noise = job.noise;
        options.backend = job.request;
        options.mps_chi = job.chi;
        const std::string report = backend::explainRouting(
            backend::route(*job.circuit, options), options);
        digest.str(job.name).str(report);
        reports += std::string("== ") + job.name + "\n" + report;
    }
    EXPECT_EQ(digest.digest().str(), "a1a86220045c8f14640b6ca83be1bf01")
        << reports;
}

// ---------------------------------------------------------------------
// Cross-backend distributional equivalence

TEST(CrossBackendTest, GhzCountsAgreeWithExactDistribution)
{
    const QuantumCircuit qc = ghzCircuit(5);
    const Counts sv = runOn(BackendKind::kStatevector, qc, nullptr);
    const Counts stab = runOn(BackendKind::kStabilizer, qc, nullptr);

    for (const Counts* counts : {&sv, &stab}) {
        ASSERT_EQ(counts->shots, 4096);
        std::vector<long> obs = {0, 0};
        for (const auto& [bits, n] : counts->map) {
            ASSERT_TRUE(bits == "00000" || bits == "11111") << bits;
            obs[bits == "11111" ? 1 : 0] += long(n);
        }
        const ChiSquareResult chi = chiSquareTest(obs, {0.5, 0.5});
        EXPECT_GT(chi.p_value, 1e-4);
    }
    expectSameDistribution(stab, sv);
}

TEST(CrossBackendTest, MidCircuitMeasurementAgrees)
{
    QuantumCircuit qc(2, 3);
    qc.h(0);
    qc.measure(0, 0); // collapses the superposition mid-circuit
    qc.cx(0, 1);
    qc.measure(0, 1);
    qc.measure(1, 2);
    const Counts sv = runOn(BackendKind::kStatevector, qc, nullptr);
    const Counts stab = runOn(BackendKind::kStabilizer, qc, nullptr);
    EXPECT_EQ(sv.map.size(), 2u);
    EXPECT_EQ(stab.map.size(), 2u);
    expectSameDistribution(stab, sv);
}

TEST(CrossBackendTest, ResetAgreesDeterministically)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.cx(0, 1);
    qc.reset(0);
    qc.measureAll();
    const Counts sv = runOn(BackendKind::kStatevector, qc, nullptr);
    const Counts stab = runOn(BackendKind::kStabilizer, qc, nullptr);
    // Qubit 0 always reads 0 after the reset; qubit 1 stays random.
    for (const Counts* counts : {&sv, &stab}) {
        for (const auto& [bits, n] : counts->map) {
            EXPECT_EQ(bits[0], '0') << bits;
        }
    }
    expectSameDistribution(stab, sv);
}

TEST(CrossBackendTest, PauliNoiseAgrees)
{
    const NoiseModel depol = NoiseModel::depolarizing(5e-3, 2e-2);
    const QuantumCircuit qc = ghzCircuit(4);
    const Counts sv = runOn(BackendKind::kStatevector, qc, &depol);
    const Counts stab = runOn(BackendKind::kStabilizer, qc, &depol);
    expectSameDistribution(stab, sv);
}

TEST(CrossBackendTest, ReadoutErrorAgrees)
{
    QuantumCircuit qc(1, 1);
    qc.measureAll(); // |0> always; readout flips to 1 w.p. p01
    NoiseModel noise;
    noise.readout_p01 = 0.2;
    const Counts sv = runOn(BackendKind::kStatevector, qc, &noise);
    const Counts stab = runOn(BackendKind::kStabilizer, qc, &noise);
    for (const Counts* counts : {&sv, &stab}) {
        std::vector<long> obs = {0, 0};
        for (const auto& [bits, n] : counts->map) {
            obs[bits == "1" ? 1 : 0] += long(n);
        }
        const ChiSquareResult chi = chiSquareTest(obs, {0.8, 0.2});
        EXPECT_GT(chi.p_value, 1e-4);
    }
}

TEST(CrossBackendTest, DensityMatrixAgreesUnderNonPauliNoise)
{
    const NoiseModel melbourne = NoiseModel::ibmqMelbourneLike();
    const QuantumCircuit qc = ghzCircuit(3);
    const Counts sv = runOn(BackendKind::kStatevector, qc, &melbourne);
    const Counts dm = runOn(BackendKind::kDensityMatrix, qc, &melbourne);
    expectSameDistribution(dm, sv);
}

// ---------------------------------------------------------------------
// Determinism across thread counts (per resolved backend)

TEST(BackendDeterminismTest, StabilizerCountsThreadInvariant)
{
    const NoiseModel depol = NoiseModel::depolarizing(1e-3, 1e-2);
    QuantumCircuit qc = ghzCircuit(4);
    qc.reset(2); // keep a mid-circuit stochastic op in play
    qc.measureAll();
    const Counts one = runOn(BackendKind::kStabilizer, qc, &depol, 512, 1);
    const Counts four = runOn(BackendKind::kStabilizer, qc, &depol, 512, 4);
    EXPECT_EQ(one.map, four.map);
}

TEST(BackendDeterminismTest, DensityCountsThreadInvariant)
{
    const NoiseModel melbourne = NoiseModel::ibmqMelbourneLike();
    const QuantumCircuit qc = ghzCircuit(3);
    const Counts one =
        runOn(BackendKind::kDensityMatrix, qc, &melbourne, 512, 1);
    const Counts four =
        runOn(BackendKind::kDensityMatrix, qc, &melbourne, 512, 4);
    EXPECT_EQ(one.map, four.map);
}

TEST(BackendDeterminismTest, AutoRouteMatchesExplicitBackend)
{
    // qa::runShots auto-routes GHZ to the stabilizer backend; forcing
    // the same backend must reproduce the same counts bit-for-bit.
    const QuantumCircuit qc = ghzCircuit(4);
    SimOptions options;
    options.shots = 512;
    options.seed = 99;
    const Counts routed = runShots(qc, options);
    options.backend = BackendRequest::kStabilizer;
    const Counts forced = runShots(qc, options);
    EXPECT_EQ(routed.map, forced.map);
}

// ---------------------------------------------------------------------
// Serve integration: cache keys, results, policy outcomes

TEST(BackendCacheKeyTest, ExplicitRequestKeysApartFromAuto)
{
    // The key absorbs the request, not the resolved backend: even the
    // backend auto would pick (stabilizer, for GHZ) keys apart.
    serve::JobSpec auto_spec;
    auto_spec.circuit = ghzCircuit(3);
    const Hash128 auto_key = serve::jobKey(auto_spec);
    for (BackendRequest request :
         {BackendRequest::kStatevector, BackendRequest::kDensityMatrix,
          BackendRequest::kStabilizer, BackendRequest::kMps}) {
        serve::JobSpec explicit_spec = auto_spec;
        explicit_spec.backend = request;
        EXPECT_NE(serve::jobKey(explicit_spec), auto_key)
            << backendRequestName(request);
    }
}

TEST(BackendCacheKeyTest, JobKeyNeverThrowsOnIncapableRequest)
{
    serve::JobSpec spec;
    QuantumCircuit qc(1, 1);
    qc.t(0);
    qc.measureAll();
    spec.circuit = qc;
    spec.backend = BackendRequest::kStabilizer;
    EXPECT_NO_THROW(serve::jobKey(spec));
    // Executing it is the typed failure.
    EXPECT_THROW(serve::executeJob(spec), UserError);
}

TEST(BackendResultTest, JobResultRecordsResolvedBackend)
{
    serve::JobSpec spec;
    spec.circuit = ghzCircuit(3);
    spec.shots = 256;
    const serve::JobResult clifford = serve::executeJob(spec);
    EXPECT_EQ(clifford.backend.backend, BackendKind::kStabilizer);
    EXPECT_FALSE(clifford.backend.explicit_request);

    QuantumCircuit qc(1, 1);
    qc.t(0);
    qc.measureAll();
    spec.circuit = qc;
    const serve::JobResult general = serve::executeJob(spec);
    EXPECT_EQ(general.backend.backend, BackendKind::kStatevector);
}

TEST(BackendResultTest, PolicyOutcomeRecordsBackend)
{
    AssertedProgram prog(prepareState(ghzVector(3)));
    prog.assertState({0, 1, 2}, StateSet::pure(ghzVector(3)),
                     AssertionDesign::kSwap);
    prog.measureProgram();
    SimOptions options;
    options.shots = 256;
    PolicyOptions popts;
    popts.policy = AssertionPolicy::kDiscard;
    const PolicyOutcome outcome = runAssertedPolicy(prog, options, popts);
    EXPECT_EQ(outcome.backend.backend, BackendKind::kStabilizer);
    EXPECT_GT(outcome.program_counts.shots, 0);
}

// ---------------------------------------------------------------------
// Counts helpers: insertion order must never matter

TEST(CountsOrderTest, MergeAndMarginalIgnoreInsertionOrder)
{
    const std::vector<std::pair<std::string, int>> entries = {
        {"000", 7}, {"101", 3}, {"011", 5}, {"110", 2}, {"001", 11}};
    Counts forward, shuffled;
    for (const auto& [bits, n] : entries) {
        forward.map[bits] = n;
        forward.shots += n;
    }
    std::vector<std::pair<std::string, int>> reversed(entries.rbegin(),
                                                      entries.rend());
    std::rotate(reversed.begin(), reversed.begin() + 2, reversed.end());
    for (const auto& [bits, n] : reversed) {
        shuffled.map[bits] = n;
        shuffled.shots += n;
    }
    EXPECT_EQ(forward.map, shuffled.map);

    Counts extra;
    extra.map = {{"101", 4}, {"111", 6}};
    extra.shots = 10;
    Counts merged_a = forward;
    mergeCounts(merged_a, extra);
    Counts merged_b = shuffled;
    mergeCounts(merged_b, extra);
    EXPECT_EQ(merged_a.map, merged_b.map);
    EXPECT_EQ(merged_a.shots, merged_b.shots);
    EXPECT_EQ(merged_a.map.at("101"), 7);

    const Counts marg_a = marginalCounts(merged_a, {0, 2});
    const Counts marg_b = marginalCounts(merged_b, {0, 2});
    EXPECT_EQ(marg_a.map, marg_b.map);
}

} // namespace
} // namespace qa
