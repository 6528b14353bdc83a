/**
 * @file
 * MPS backend tests (DESIGN.md Sec. 16): exact amplitudes of the chain
 * core, SWAP routing of long-range gates, truncation accounting at a
 * binding chi cap, cross-backend chi-square equivalence against the
 * statevector engine (GHZ lines, QFT, shallow QAOA, mid-circuit
 * measure/reset, readout noise), bit-determinism across thread counts,
 * warm samplers against fresh ones past the leaf-chain budget,
 * entanglement-aware router arbitration with typed explicit-override
 * rejection, jobKey MPS-knob sensitivity, wire explain fields, and the
 * assertion compiler's typed rejection under backend=mps.
 */
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "acomp/compiler.hpp"
#include "algos/qft.hpp"
#include "algos/states.hpp"
#include "backend/backend.hpp"
#include "backend/outcome_trie.hpp"
#include "backend/router.hpp"
#include "baselines/chi_square.hpp"
#include "circuit/stdgates.hpp"
#include "common/error.hpp"
#include "mps/mps_state.hpp"
#include "serve/job.hpp"
#include "sim/exact.hpp"
#include "sim/statevector.hpp"
#include "serve/wire.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

using backend::BackendChoice;

/** Non-Clifford Trotterized Ising chain (line topology), measured. */
QuantumCircuit
trotterChain(int n, int layers)
{
    QuantumCircuit qc(n, n);
    for (int q = 0; q < n; ++q) qc.rx(q, 0.30 + 0.01 * q);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q + 1 < n; ++q) {
            qc.cx(q, q + 1);
            qc.rz(q + 1, 0.17);
            qc.cx(q, q + 1);
        }
        for (int q = 0; q < n; ++q) qc.rx(q, 0.21);
    }
    qc.measureAll();
    return qc;
}

/** GHZ line with terminal measurement. */
QuantumCircuit
ghzLine(int n)
{
    QuantumCircuit qc(n, n);
    qc.h(0);
    for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
    qc.measureAll();
    return qc;
}

/** Depth-one QAOA on a ring (the wrap edge is long-range on a chain). */
QuantumCircuit
qaoaRing(int n, double gamma, double beta)
{
    QuantumCircuit qc(n, n);
    for (int q = 0; q < n; ++q) qc.h(q);
    for (int q = 0; q < n; ++q) {
        const int a = q;
        const int b = (q + 1) % n;
        qc.cx(a, b);
        qc.rz(b, gamma);
        qc.cx(a, b);
    }
    for (int q = 0; q < n; ++q) qc.rx(q, beta);
    qc.measureAll();
    return qc;
}

/** Rotation/CX brickwork: entanglement genuinely grows to full width. */
QuantumCircuit
brickwork(int n, int depth)
{
    QuantumCircuit qc(n, n);
    for (int d = 0; d < depth; ++d) {
        for (int q = 0; q < n; ++q) {
            qc.ry(q, 0.40 + 0.13 * q + 0.31 * d);
        }
        for (int q = d % 2; q + 1 < n; q += 2) qc.cx(q, q + 1);
    }
    qc.measureAll();
    return qc;
}

/**
 * Exact outcome distribution (qa::exactDistribution), optionally folded
 * through readout error.
 */
std::map<std::string, double>
exactClbitDistribution(const QuantumCircuit& qc, double p01 = 0.0,
                       double p10 = 0.0)
{
    std::map<std::string, double> ideal = exactDistribution(qc).probs;
    if (p01 <= 0.0 && p10 <= 0.0) return ideal;
    std::vector<int> measured;
    for (const Instruction& instr : qc.instructions()) {
        if (instr.type == OpType::kMeasure) {
            measured.push_back(instr.cbit);
        }
    }
    for (const int c : measured) {
        std::map<std::string, double> next;
        for (const auto& [bits, p] : ideal) {
            const bool one = bits[size_t(c)] == '1';
            const double pflip = one ? p10 : p01;
            std::string flipped = bits;
            flipped[size_t(c)] = one ? '0' : '1';
            next[bits] += p * (1.0 - pflip);
            if (pflip > 0.0) next[flipped] += p * pflip;
        }
        ideal = std::move(next);
    }
    return ideal;
}

/** One-sample chi-square of observed counts against exact probabilities. */
void
expectMatchesExact(const Counts& observed,
                   const std::map<std::string, double>& probs)
{
    std::vector<long> obs;
    std::vector<double> expected;
    for (const auto& [bits, p] : probs) {
        const auto o = observed.map.find(bits);
        obs.push_back(o == observed.map.end() ? 0 : long(o->second));
        expected.push_back(p);
    }
    for (const auto& [bits, n] : observed.map) {
        if (probs.find(bits) == probs.end()) {
            obs.push_back(long(n));
            expected.push_back(0.0); // impossible cell: rejects strongly
        }
    }
    const ChiSquareResult chi = chiSquareTest(obs, expected);
    EXPECT_GT(chi.p_value, 1e-4)
        << "distribution off exact: chi2=" << chi.statistic
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
// MpsState core

TEST(MpsStateTest, GhzAmplitudesExact)
{
    mps::MpsState state(3, 8);
    state.apply1q(gates::h(), 0);
    state.apply2q(gates::cx(), 0, 1);
    state.apply2q(gates::cx(), 1, 2);
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(state.amplitude("000")), inv_sqrt2, 1e-12);
    EXPECT_NEAR(std::abs(state.amplitude("111")), inv_sqrt2, 1e-12);
    EXPECT_NEAR(std::abs(state.amplitude("010")), 0.0, 1e-12);
    EXPECT_EQ(state.stats().discarded_weight, 0.0);
}

TEST(MpsStateTest, LongRangeGateIsSwapRouted)
{
    mps::MpsState state(4, 8);
    state.apply1q(gates::h(), 0);
    state.apply2q(gates::cx(), 0, 3); // routed through sites 1 and 2
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(state.amplitude("0000")), inv_sqrt2, 1e-12);
    EXPECT_NEAR(std::abs(state.amplitude("1001")), inv_sqrt2, 1e-12);
    EXPECT_NEAR(std::abs(state.amplitude("1000")), 0.0, 1e-12);
    // Routing must not permute the qubit -> site map: qubit 3, not 1.
    EXPECT_NEAR(std::abs(state.amplitude("1100")), 0.0, 1e-12);
    EXPECT_GT(state.stats().two_site_updates, 1u);
}

TEST(MpsStateTest, ReversedQubitOrderMatchesConvention)
{
    // cx with control = higher-index qubit: matrix qubits[0] is the MSB.
    mps::MpsState state(2, 4);
    state.apply1q(gates::h(), 1);
    state.apply2q(gates::cx(), 1, 0);
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(state.amplitude("00")), inv_sqrt2, 1e-12);
    EXPECT_NEAR(std::abs(state.amplitude("11")), inv_sqrt2, 1e-12);
    EXPECT_NEAR(std::abs(state.amplitude("01")), 0.0, 1e-12);
}

TEST(MpsStateTest, MeasureCollapseProjectsAndRenormalizes)
{
    mps::MpsState state(2, 4);
    state.apply1q(gates::h(), 0);
    state.apply2q(gates::cx(), 0, 1);
    EXPECT_NEAR(state.probabilityZero(0), 0.5, 1e-12);
    Rng rng = Rng::forStream(7, 0);
    const int outcome = rng.uniform() < state.probabilityZero(0) ? 0 : 1;
    state.collapseTo(0, outcome);
    EXPECT_NEAR(state.probabilityZero(1), outcome == 0 ? 1.0 : 0.0, 1e-10);
    const std::string expect = outcome == 0 ? "00" : "11";
    EXPECT_NEAR(std::abs(state.amplitude(expect)), 1.0, 1e-10);
}

TEST(MpsStateTest, BindingChiCapTracksDiscardedWeight)
{
    mps::MpsState exact(6, 64);
    mps::MpsState capped(6, 2);
    auto drive = [](mps::MpsState& s) {
        for (int d = 0; d < 6; ++d) {
            for (int q = 0; q < 6; ++q) {
                s.apply1q(gates::ry(0.40 + 0.13 * q + 0.31 * d), q);
            }
            for (int q = d % 2; q + 1 < 6; q += 2) {
                s.apply2q(gates::cx(), q, q + 1);
            }
        }
    };
    drive(exact);
    drive(capped);
    EXPECT_EQ(exact.stats().discarded_weight, 0.0);
    EXPECT_GT(capped.stats().discarded_weight, 0.0);
    EXPECT_LE(capped.stats().max_bond, 2);
    EXPECT_GT(exact.stats().max_bond, 2);
}

// ---------------------------------------------------------------------
// Cross-backend distributional equivalence

TEST(MpsBackendTest, GhzLineMatchesStatevector)
{
    const QuantumCircuit qc = ghzLine(8);
    const auto exact = exactClbitDistribution(qc);
    expectMatchesExact(runOn(BackendKind::kMps, qc, nullptr), exact);
    expectMatchesExact(runOn(BackendKind::kStatevector, qc, nullptr),
                       exact);
}

TEST(MpsBackendTest, QftMatchesStatevector)
{
    QuantumCircuit qc(8, 8);
    qc.x(0);
    qc.x(2);
    qc.h(5);
    std::vector<int> qubits;
    for (int q = 0; q < 8; ++q) qubits.push_back(q);
    algos::appendQft(qc, qubits);
    qc.measureAll();
    const auto exact = exactClbitDistribution(qc);
    expectMatchesExact(runOn(BackendKind::kMps, qc, nullptr), exact);
    expectMatchesExact(runOn(BackendKind::kStatevector, qc, nullptr),
                       exact);
}

TEST(MpsBackendTest, ShallowQaoaMatchesStatevector)
{
    const QuantumCircuit qc = qaoaRing(10, 0.6, 0.4);
    const auto exact = exactClbitDistribution(qc);
    expectMatchesExact(runOn(BackendKind::kMps, qc, nullptr), exact);
    expectMatchesExact(runOn(BackendKind::kStatevector, qc, nullptr),
                       exact);
}

TEST(MpsBackendTest, MidCircuitMeasureResetMatchesStatevector)
{
    QuantumCircuit qc(5, 5);
    qc.h(0);
    qc.cx(0, 1);
    qc.cx(1, 2);
    qc.measure(1, 1); // mid-circuit: later gates depend on collapse
    qc.reset(1);
    qc.h(1);
    qc.t(2);
    qc.cx(2, 3);
    qc.cx(3, 4);
    qc.measure(0, 0);
    qc.measure(2, 2);
    qc.measure(3, 3);
    qc.measure(4, 4);
    const auto exact = exactClbitDistribution(qc);
    expectMatchesExact(runOn(BackendKind::kMps, qc, nullptr), exact);
    expectMatchesExact(runOn(BackendKind::kStatevector, qc, nullptr),
                       exact);
}

TEST(MpsBackendTest, ReadoutNoiseMatchesStatevector)
{
    NoiseModel noise;
    noise.readout_p01 = 0.02;
    noise.readout_p10 = 0.05;
    const QuantumCircuit qc = ghzLine(6);
    const auto exact = exactClbitDistribution(qc, noise.readout_p01,
                                         noise.readout_p10);
    expectMatchesExact(runOn(BackendKind::kMps, qc, &noise), exact);
    expectMatchesExact(runOn(BackendKind::kStatevector, qc, &noise),
                       exact);
}

TEST(MpsBackendTest, LongRangeGatesMatchStatevector)
{
    QuantumCircuit qc(8, 8);
    qc.h(0);
    qc.cx(0, 7);
    qc.cp(1, 6, 0.7);
    qc.h(1);
    qc.cx(1, 4);
    qc.t(2);
    qc.cx(5, 2); // control above target
    qc.measureAll();
    const auto exact = exactClbitDistribution(qc);
    expectMatchesExact(runOn(BackendKind::kMps, qc, nullptr), exact);
    expectMatchesExact(runOn(BackendKind::kStatevector, qc, nullptr),
                       exact);
}

TEST(MpsBackendTest, BitIdenticalAcrossThreadCounts)
{
    const QuantumCircuit qc = qaoaRing(9, 0.5, 0.3);
    const Counts one = runOn(BackendKind::kMps, qc, nullptr, 4096, 1);
    const Counts two = runOn(BackendKind::kMps, qc, nullptr, 4096, 2);
    const Counts eight = runOn(BackendKind::kMps, qc, nullptr, 4096, 8);
    EXPECT_EQ(one.map, two.map);
    EXPECT_EQ(one.map, eight.map);
}

TEST(MpsBackendTest, MidCircuitBitIdenticalAcrossThreadCounts)
{
    QuantumCircuit qc(4, 4);
    qc.h(0);
    qc.cx(0, 1);
    qc.measure(0, 0);
    qc.reset(0);
    qc.t(1);
    qc.cx(1, 2);
    qc.cx(2, 3);
    qc.measure(1, 1);
    qc.measure(2, 2);
    qc.measure(3, 3);
    const Counts one = runOn(BackendKind::kMps, qc, nullptr, 2048, 1);
    const Counts eight = runOn(BackendKind::kMps, qc, nullptr, 2048, 8);
    EXPECT_EQ(one.map, eight.map);
}

TEST(MpsBackendTest, OutcomeTrieWarmMatchesCold)
{
    // Mid-circuit measures and resets, then the peeled terminal tail,
    // noise-free and under readout error.
    QuantumCircuit qc(5, 5);
    qc.h(0);
    qc.cx(0, 1);
    qc.ry(2, 0.7);
    qc.measure(0, 0);
    qc.reset(0);
    qc.measure(2, 2);
    qc.t(1);
    qc.cx(1, 3);
    qc.reset(2);
    qc.cx(3, 4);
    qc.measure(1, 1);
    qc.measure(3, 3);
    qc.measure(4, 4);
    NoiseModel readout;
    readout.readout_p01 = 0.02;
    readout.readout_p10 = 0.05;
    const std::pair<const char*, const NoiseModel*> cases[] = {
        {"noise-free", nullptr}, {"readout", &readout}};
    for (const auto& [name, noise] : cases) {
        SCOPED_TRACE(name);
        SimOptions options;
        options.noise = noise;
        test::expectWarmSamplerMatchesCold(
            *backend::backendFor(BackendKind::kMps).prepare(qc, options),
            35, 400);
    }
}

TEST(MpsBackendTest, OutcomeTrieWarmMatchesColdPastLeafBudget)
{
    // A 64-qubit brickwork (bond dimension ~8 across the chain), then
    // eight mid-circuit measurements, a reset and a final layer: each
    // outcome path keeps a post-suffix chain of ~150 KiB, and the paths
    // below need more than a sampler's leaf budget.
    constexpr int n = 64;
    QuantumCircuit gates(n);
    for (int d = 0; d < 6; ++d) {
        for (int q = 0; q < n; ++q) gates.ry(q, 0.40 + 0.13 * q + 0.31 * d);
        for (int q = d % 2; q + 1 < n; q += 2) gates.cx(q, q + 1);
    }
    std::vector<int> wires;
    for (int q = 0; q < n; ++q) wires.push_back(q);
    QuantumCircuit qc(n, n);
    qc.compose(gates, wires);
    std::vector<int> measured;
    for (int q = 3; q < n; q += 8) {
        qc.measure(q, q);
        measured.push_back(q);
    }
    qc.reset(11);
    for (int q = 0; q < n; ++q) qc.ry(q, 0.5);
    qc.measureAll();

    SimOptions options;
    std::set<std::string> seen;
    test::expectWarmSamplerMatchesCold(
        *backend::backendFor(BackendKind::kMps).prepare(qc, options), 34,
        48, &seen);

    // One path's leaf chain, replayed by hand, sizes them all.
    mps::MpsState leaf(n, options.mps_chi);
    for (const Instruction& instr : gates.instructions()) {
        if (instr.arity() == 1) {
            leaf.apply1q(instr.matrix, instr.qubits[0]);
        } else {
            leaf.apply2q(instr.matrix, instr.qubits[0], instr.qubits[1]);
        }
    }
    for (int q : measured) leaf.collapseTo(q, 0);
    for (int q = 0; q < n; ++q) leaf.apply1q(gates::ry(0.5), q);
    std::set<std::string> paths;
    for (const std::string& bits : seen) {
        std::string path;
        for (int q : measured) path += bits[size_t(q)];
        paths.insert(path);
    }
    EXPECT_GT(paths.size() * leaf.memoryBytes(),
              2 * backend::OutcomeTrie::kMaxLeafBytes);
}

TEST(MpsBackendTest, KrausNoiseRejectedAtPrepare)
{
    const NoiseModel noise = NoiseModel::depolarizing(1e-3, 1e-2);
    SimOptions options;
    options.shots = 16;
    options.noise = &noise;
    try {
        backend::backendFor(BackendKind::kMps)
            .prepare(ghzLine(3), options);
        FAIL() << "expected kBadRequest";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
    }
}

TEST(MpsBackendTest, TruncationErrorSurfacedByPreparedCircuit)
{
    SimOptions options;
    options.shots = 512;
    options.seed = 9;
    options.backend = BackendRequest::kMps;
    options.mps_chi = 2;
    options.mps_trunc_tol = 1.0; // opt in to lossy compression
    const QuantumCircuit qc = brickwork(6, 6);
    const backend::Route routed = backend::route(qc, options);
    EXPECT_EQ(routed.choice.backend, BackendKind::kMps);
    const auto prepared = backend::prepareRouted(qc, options, routed);
    EXPECT_GT(prepared->truncationError(), 0.0);
    const Counts counts = backend::runPrepared(*prepared, options);
    EXPECT_EQ(counts.shots, 512);
}

// ---------------------------------------------------------------------
// Router arbitration

TEST(RouterMpsTest, WideTrotterChainAutoRoutesToMps)
{
    SimOptions options;
    options.shots = 4096;
    const QuantumCircuit qc = trotterChain(32, 2);
    const BackendChoice choice = backend::routeShots(qc, options);
    EXPECT_EQ(choice.backend, BackendKind::kMps);
    EXPECT_FALSE(choice.explicit_request);
    EXPECT_TRUE(choice.capable);
    EXPECT_GE(choice.mps_chi, 2);
    EXPECT_GT(choice.mps_ent_width, 0);
    EXPECT_EQ(choice.mps_trunc_bound, 0.0);
    EXPECT_NE(choice.reason.find("MPS"), std::string::npos)
        << choice.reason;
}

TEST(RouterMpsTest, WideTrotterChainExecutesExactly)
{
    // 32 qubits is far beyond the dense engines; the chain runs it and
    // a product of the per-qubit marginals sanity-checks nothing NaN'd.
    SimOptions options;
    options.shots = 256;
    options.seed = 5;
    options.num_threads = 2;
    const QuantumCircuit qc = trotterChain(32, 2);
    const Counts counts = runShots(qc, options);
    EXPECT_EQ(counts.shots, 256);
    for (const auto& [bits, n] : counts.map) {
        EXPECT_EQ(bits.size(), 32u);
    }
}

TEST(RouterMpsTest, NarrowCircuitsKeepTheirBackends)
{
    SimOptions options;
    options.shots = 4096;
    // QFT-8: dense SIMD wins below the width floor.
    QuantumCircuit qft_qc(8, 8);
    std::vector<int> qubits;
    for (int q = 0; q < 8; ++q) qubits.push_back(q);
    algos::appendQft(qft_qc, qubits);
    qft_qc.measureAll();
    EXPECT_EQ(backend::routeShots(qft_qc, options).backend,
              BackendKind::kStatevector);
    // GHZ-30: Clifford, the tableau beats any chi.
    EXPECT_EQ(backend::routeShots(ghzLine(30), options).backend,
              BackendKind::kStabilizer);
}

TEST(RouterMpsTest, ChoiceAlwaysCarriesMpsFacts)
{
    SimOptions options;
    options.shots = 128;
    const BackendChoice choice =
        backend::routeShots(brickwork(6, 4), options);
    EXPECT_NE(choice.backend, BackendKind::kMps);
    EXPECT_GE(choice.mps_chi, 1);
    EXPECT_GT(choice.mps_ent_width, 0);
    EXPECT_GE(choice.mps_trunc_bound, 0.0);
}

TEST(RouterMpsTest, ExplicitMpsOverTruncationToleranceIsTypedError)
{
    // Dense brickwork needs chi ~ 2^6; chi=2 at the default tolerance
    // must be a typed capability error, not a silent fallback.
    SimOptions options;
    options.shots = 128;
    options.backend = BackendRequest::kMps;
    options.mps_chi = 2;
    const QuantumCircuit qc = brickwork(12, 12);
    const BackendChoice choice = backend::routeShots(qc, options);
    EXPECT_EQ(choice.backend, BackendKind::kMps);
    EXPECT_TRUE(choice.explicit_request);
    EXPECT_FALSE(choice.capable);
    EXPECT_NE(choice.reason.find("mps_tol"), std::string::npos)
        << choice.reason;
    try {
        backend::prepareRouted(qc, options, backend::route(qc, options));
        FAIL() << "expected kBadRequest";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
        EXPECT_NE(std::string(err.what()).find("truncation"),
                  std::string::npos)
            << err.what();
    }
}

TEST(RouterMpsTest, ExplicitMpsWideGateIsTypedError)
{
    SimOptions options;
    options.shots = 16;
    options.backend = BackendRequest::kMps;
    QuantumCircuit qc(5, 5);
    qc.unitary(CMatrix::identity(16), {0, 1, 2, 3});
    qc.measureAll();
    const BackendChoice choice = backend::routeShots(qc, options);
    EXPECT_FALSE(choice.capable);
    EXPECT_NE(choice.reason.find("mps"), std::string::npos)
        << choice.reason;
}

TEST(RouterMpsTest, ExplainRoutingReportsEntanglementLine)
{
    SimOptions options;
    options.shots = 4096;
    const std::string report =
        backend::explainRouting(
            backend::route(trotterChain(32, 2), options), options);
    EXPECT_NE(report.find("entanglement:"), std::string::npos) << report;
    EXPECT_NE(report.find("effective chi"), std::string::npos) << report;
    EXPECT_NE(report.find("mps="), std::string::npos) << report;
}

// ---------------------------------------------------------------------
// Serve-layer integration

TEST(MpsServeTest, JobKeyAbsorbsMpsKnobsOnlyWhenRoutingReadsThem)
{
    // auto and mps requests route on mps_chi and mps_tol, so both
    // separate the key.
    for (BackendRequest request : {BackendRequest::kAuto,
                                   BackendRequest::kMps}) {
        SCOPED_TRACE(backendRequestName(request));
        serve::JobSpec spec;
        spec.circuit = brickwork(5, 3);
        spec.shots = 64;
        spec.seed = 1;
        spec.backend = request;
        const Hash128 base = serve::jobKey(spec);
        serve::JobSpec chi = spec;
        chi.mps_chi = 128;
        EXPECT_NE(serve::jobKey(chi), base);
        serve::JobSpec tol = spec;
        tol.mps_trunc_tol = 1e-3;
        EXPECT_NE(serve::jobKey(tol), base);
    }

    // The exact backends never read them.
    for (BackendRequest request :
         {BackendRequest::kStatevector, BackendRequest::kStabilizer,
          BackendRequest::kDensityMatrix}) {
        SCOPED_TRACE(backendRequestName(request));
        serve::JobSpec spec;
        spec.circuit = brickwork(5, 3);
        spec.shots = 64;
        spec.seed = 1;
        spec.backend = request;
        const Hash128 base = serve::jobKey(spec);
        spec.mps_chi = 128;
        spec.mps_trunc_tol = 1e-3;
        EXPECT_EQ(serve::jobKey(spec), base);
    }
}

TEST(MpsServeTest, ExplainLineCarriesMpsBlock)
{
    SimOptions options;
    options.shots = 4096;
    const BackendChoice choice =
        backend::routeShots(trotterChain(26, 2), options);
    const std::string line = serve::encodeExplain("req-1", choice);
    EXPECT_NE(line.find("\"backend\":\"mps\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"mps\":{\"chi\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"ent_width\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"trunc_bound\":"), std::string::npos) << line;
}

TEST(MpsServeTest, MpsJobExecutesThroughExecuteJob)
{
    serve::JobSpec spec;
    spec.circuit = trotterChain(26, 1);
    spec.shots = 128;
    spec.seed = 11;
    spec.backend = BackendRequest::kMps;
    const serve::JobResult result = serve::executeJob(spec);
    EXPECT_EQ(result.status, serve::JobStatus::kOk);
    EXPECT_EQ(result.backend.backend, BackendKind::kMps);
    EXPECT_EQ(result.counts.shots, 128);
    EXPECT_GE(result.mps_truncation_error, 0.0);
}

// ---------------------------------------------------------------------
// Assertion compiler under backend=mps

TEST(AcompMpsTest, PinnedPauliFormOnDenseTargetIsTypedRejection)
{
    QuantumCircuit qc = algos::wPrep(3);
    acomp::AssertionSite site;
    site.position = qc.instructions().size();
    site.qubits = {0, 1, 2};
    site.set =
        std::make_shared<StateSet>(StateSet::pure(algos::wVector(3)));
    acomp::AcompOptions opts;
    opts.backend = BackendRequest::kMps;
    opts.lowering = acomp::LoweringRequest::kPauliMeasure;
    try {
        acomp::compileAssertions(qc, {site}, opts);
        FAIL() << "expected kUnsupportedAssertion";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kUnsupportedAssertion);
    }
    // kAuto under the same backend still finds a unitary form whose
    // lowered fragment fits the chain's arity-3 gadget limit.
    opts.lowering = acomp::LoweringRequest::kAuto;
    const acomp::CompiledProgram compiled =
        acomp::compileAssertions(qc, {site}, opts);
    ASSERT_EQ(compiled.slots.size(), 1u);
    for (const acomp::SlotSummary& slot : compiled.slots) {
        EXPECT_NE(slot.form, acomp::LoweringForm::kPauliMeasure);
    }
}

} // namespace
} // namespace qa
