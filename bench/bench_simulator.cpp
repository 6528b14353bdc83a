/**
 * @file
 * Substrate benchmark: throughput of the simulation backends that every
 * reproduction number rests on -- statevector gate kernels, shot
 * sampling, per-shot RNG streams, mid-circuit assertion replay, exact
 * branching distributions, density-matrix evolution, and the
 * stabilizer tableau.
 */
#include <cmath>

#include <benchmark/benchmark.h>

#include "algos/adder.hpp"
#include "algos/qft.hpp"
#include "backend/backend.hpp"
#include "core/asserted_program.hpp"
#include "linalg/states.hpp"
#include "sim/density.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"
#include "stab/tableau.hpp"

namespace
{

using namespace qa;

QuantumCircuit
layeredCircuit(int n, int layers)
{
    QuantumCircuit qc(n);
    Rng rng(1);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < n; ++q) {
            qc.u3(q, rng.uniform(0, 3), rng.uniform(0, 3),
                  rng.uniform(0, 3));
        }
        for (int q = 0; q + 1 < n; q += 2) qc.cx(q, q + 1);
        for (int q = 1; q + 1 < n; q += 2) qc.cx(q, q + 1);
    }
    return qc;
}

/**
 * Statevector counts on the raw gates (the analysis' fused stream
 * reset); with `replay_all` also without its shot plan, so every shot
 * replays every instruction.
 */
Counts
runReference(const QuantumCircuit& qc, const SimOptions& options,
             bool replay_all)
{
    backend::CircuitAnalysis analysis =
        backend::analyzeForRouting(qc, options);
    analysis.fused.reset();
    if (replay_all) analysis.plan = ShotPlan{};
    const auto prepared =
        backend::backendFor(BackendKind::kStatevector)
            .prepare(qc, options, analysis);
    return backend::runPrepared(*prepared, options);
}

void
BM_StatevectorLayers(benchmark::State& state)
{
    const int n = int(state.range(0));
    const QuantumCircuit qc = layeredCircuit(n, 10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(finalState(qc).amplitudes().dim());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(qc.size()));
}
BENCHMARK(BM_StatevectorLayers)->DenseRange(4, 16, 4);

/**
 * Same workload with fusion and SIMD disabled: the pre-fusion kernel
 * path. The BM_StatevectorLayers ratio is the tentpole speedup.
 */
void
BM_StatevectorLayersUnfused(benchmark::State& state)
{
    const int n = int(state.range(0));
    const QuantumCircuit qc = layeredCircuit(n, 10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            finalState(qc, FusionOptions{false, 2}, false)
                .amplitudes()
                .dim());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(qc.size()));
}
BENCHMARK(BM_StatevectorLayersUnfused)->DenseRange(4, 16, 4);

/**
 * The PR 6 acceptance workload: a 16-qubit random 1q+2q layered
 * circuit at 4096 shots through the full shot engine (fused prefix +
 * terminal sampling). The fused/unfused pair brackets the fusion win
 * on a realistic job; BM_StatevectorLayers against
 * BM_StatevectorLayersUnfused measures SIMD against scalar.
 */
void
BM_ShotEngineRandom16(benchmark::State& state)
{
    QuantumCircuit qc(16, 16);
    std::vector<int> ident;
    for (int q = 0; q < 16; ++q) ident.push_back(q);
    qc.compose(layeredCircuit(16, 8), ident);
    qc.measureAll();
    SimOptions options;
    options.shots = 4096;
    options.seed = 11;
    const bool fused = state.range(0) != 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            (fused ? runShots(qc, options)
                   : runReference(qc, options, false))
                .shots);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * options.shots);
}
BENCHMARK(BM_ShotEngineRandom16)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"fused"})
    ->Unit(benchmark::kMillisecond);

void
BM_ShotSampling(benchmark::State& state)
{
    QuantumCircuit qc = layeredCircuit(8, 5);
    QuantumCircuit measured(8, 8);
    std::vector<int> ident{0, 1, 2, 3, 4, 5, 6, 7};
    measured.compose(qc, ident);
    measured.measureAll();
    SimOptions options;
    options.shots = int(state.range(0));
    options.seed = 2;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runShots(measured, options).shots);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * options.shots);
}
BENCHMARK(BM_ShotSampling)->Arg(128)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/**
 * Per-shot stream cost: a fresh counter-based stream plus its first
 * draw, which is what every sampled shot pays before any simulation.
 */
void
BM_RngForStreamFirstDraw(benchmark::State& state)
{
    uint64_t stream = 0;
    for (auto _ : state) {
        Rng rng = Rng::forStream(7, stream++);
        benchmark::DoNotOptimize(rng.uniform());
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_RngForStreamFirstDraw);

/**
 * One long stream: 10,000 draws, almost all past the first 156, so the
 * steady-state generator (full twists every 312 draws) dominates.
 */
void
BM_RngLongStream(benchmark::State& state)
{
    uint64_t seed = 0;
    for (auto _ : state) {
        Rng rng(seed++);
        double sum = 0.0;
        for (int i = 0; i < 10000; ++i) sum += rng.uniform();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 10000);
}
BENCHMARK(BM_RngLongStream);

/** n-qubit QFT with every qubit measured: the terminal fast-path case. */
QuantumCircuit
measuredQft(int n)
{
    QuantumCircuit qc(n, n);
    std::vector<int> ident;
    for (int q = 0; q < n; ++q) ident.push_back(q);
    qc.compose(qa::algos::qft(n), ident);
    qc.measureAll();
    return qc;
}

/**
 * Shot engine, noiseless terminal measurement (12-qubit QFT, 4096
 * shots): the prefix is evolved once and the final distribution sampled
 * per shot. Thread count is the benchmark argument.
 */
void
BM_ShotEngineTerminal(benchmark::State& state)
{
    const QuantumCircuit qc = measuredQft(12);
    SimOptions options;
    options.shots = 4096;
    options.seed = 7;
    options.num_threads = int(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(runShots(qc, options).shots);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * options.shots);
}
BENCHMARK(BM_ShotEngineTerminal)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * Seed-equivalent reference on the same workload: full per-shot replay
 * of the raw gates, pinned to one iteration because a single run costs
 * seconds. The BM_ShotEngineTerminal/1 ratio is the engine speedup.
 */
void
BM_ShotEngineTerminalNaive(benchmark::State& state)
{
    const QuantumCircuit qc = measuredQft(12);
    SimOptions options;
    options.shots = 4096;
    options.seed = 7;
    options.num_threads = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runReference(qc, options, true).shots);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * options.shots);
}
BENCHMARK(BM_ShotEngineTerminalNaive)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Shot engine with a mid-circuit measurement: the deterministic prefix
 * (10 layers) is cached; only the short suffix replays per shot.
 */
void
BM_ShotEngineMidCircuit(benchmark::State& state)
{
    QuantumCircuit qc(10, 10);
    std::vector<int> ident{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    qc.compose(layeredCircuit(10, 10), ident);
    qc.measure(0, 0);
    qc.compose(layeredCircuit(10, 1), ident);
    qc.measureAll();
    SimOptions options;
    options.shots = 256;
    options.seed = 11;
    options.num_threads = int(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(runShots(qc, options).shots);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * options.shots);
}
BENCHMARK(BM_ShotEngineMidCircuit)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/** Appendix-D adder (both controls on) under a precise SWAP assertion. */
QuantumCircuit
assertedAdder()
{
    QuantumCircuit qc(5);
    const std::vector<int> data{0, 1, 2};
    qc.x(0); // initial value 4
    qc.x(3);
    qc.x(4);
    algos::appendQft(qc, data);
    algos::appendControlledAdder(qc, {3, 4}, data, 3);
    AssertedProgram prog(qc);
    prog.assertState({0, 1, 2, 3, 4},
                     StateSet::pure(finalState(qc).amplitudes()),
                     AssertionDesign::kSwap);
    prog.measureProgram();
    return prog.circuit();
}

/**
 * A 24-qubit, two-layer Trotter chain (rx layers plus cx/rz/cx
 * couplers) under a SWAP assertion of span{|00>, |11>} on its last
 * pair.
 */
QuantumCircuit
assertedTrotterChain()
{
    constexpr int n = 24;
    QuantumCircuit qc(n);
    for (int q = 0; q < n; ++q) qc.rx(q, 0.30 + 0.01 * q);
    for (int l = 0; l < 2; ++l) {
        for (int q = 0; q + 1 < n; ++q) {
            qc.cx(q, q + 1);
            qc.rz(q + 1, 0.17);
            qc.cx(q, q + 1);
        }
        for (int q = 0; q < n; ++q) qc.rx(q, 0.21);
    }
    AssertedProgram prog(qc);
    prog.assertState({n - 2, n - 1},
                     StateSet::approximate({CVector::basisState(4, 0),
                                            CVector::basisState(4, 3)}),
                     AssertionDesign::kSwap);
    prog.measureProgram();
    return prog.circuit();
}

/**
 * A 16-qubit GHZ chain checked by one assertion ancilla: for each
 * neighbouring pair, both qubits are CX'd onto the ancilla, which is
 * measured mid-circuit (the pair's ZZ parity) and reset; then every
 * data qubit is measured. Clifford throughout.
 */
QuantumCircuit
assertedGhzParity()
{
    constexpr int n = 16;
    QuantumCircuit qc(n + 1, 2 * n - 1);
    qc.h(0);
    for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
    for (int q = 0; q + 1 < n; ++q) {
        qc.cx(q, n);
        qc.cx(q + 1, n);
        qc.measure(n, n + q);
        qc.reset(n);
    }
    for (int q = 0; q < n; ++q) qc.measure(q, q);
    return qc;
}

/**
 * Assertion shots whose ancilla is measured mid-circuit, so every shot
 * replays a suffix: arg 0 is the asserted adder on the statevector
 * backend (512 shots), arg 1 the asserted Trotter chain on MPS (128
 * shots), arg 2 the parity-checked GHZ chain on the stabilizer backend
 * (512 shots). One thread, so one sampler serves every shot.
 */
void
BM_AssertionReplayShots(benchmark::State& state)
{
    const int job = int(state.range(0));
    const QuantumCircuit qc = job == 0   ? assertedAdder()
                              : job == 1 ? assertedTrotterChain()
                                         : assertedGhzParity();
    SimOptions options;
    options.shots = job == 1 ? 128 : 512;
    options.seed = 17;
    options.num_threads = 1;
    options.backend = job == 0   ? BackendRequest::kStatevector
                      : job == 1 ? BackendRequest::kMps
                                 : BackendRequest::kStabilizer;
    const auto prepared = backend::prepareRouted(
        qc, options, backend::route(qc, options));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            backend::runPrepared(*prepared, options).shots);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * options.shots);
}
BENCHMARK(BM_AssertionReplayShots)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

/**
 * Shot engine under trajectory noise: the split lands on the first
 * noisy gate, so per-shot replay dominates and the thread pool carries
 * the scaling.
 */
void
BM_ShotEngineNoisy(benchmark::State& state)
{
    const QuantumCircuit qc = measuredQft(8);
    const NoiseModel noise = NoiseModel::ibmqMelbourneLike();
    SimOptions options;
    options.shots = 256;
    options.seed = 13;
    options.noise = &noise;
    options.num_threads = int(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(runShots(qc, options).shots);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * options.shots);
}
BENCHMARK(BM_ShotEngineNoisy)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_ExactBranching(benchmark::State& state)
{
    // Mid-circuit measurements force branching: 4 measurements on an
    // 8-qubit circuit.
    QuantumCircuit qc(8, 4);
    std::vector<int> ident{0, 1, 2, 3, 4, 5, 6, 7};
    qc.compose(layeredCircuit(8, 3), ident);
    for (int m = 0; m < 4; ++m) qc.measure(m, m);
    qc.compose(layeredCircuit(8, 2), ident);
    for (auto _ : state) {
        benchmark::DoNotOptimize(exactDistribution(qc).probs.size());
    }
}
BENCHMARK(BM_ExactBranching)->Unit(benchmark::kMillisecond);

void
BM_DensityMatrixLayers(benchmark::State& state)
{
    const int n = int(state.range(0));
    const QuantumCircuit qc = layeredCircuit(n, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(finalDensity(qc).rows());
    }
}
BENCHMARK(BM_DensityMatrixLayers)->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMillisecond);

void
BM_DensityMatrixWithNoise(benchmark::State& state)
{
    const NoiseModel noise = NoiseModel::ibmqMelbourneLike();
    const QuantumCircuit qc = layeredCircuit(int(state.range(0)), 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(finalDensity(qc, &noise).rows());
    }
}
BENCHMARK(BM_DensityMatrixWithNoise)->Arg(4)->Arg(6)
    ->Unit(benchmark::kMillisecond);

void
BM_StabilizerTableau(benchmark::State& state)
{
    const int n = int(state.range(0));
    QuantumCircuit qc(n);
    Rng rng(3);
    for (int g = 0; g < 20 * n; ++g) {
        const int a = int(rng.index(n));
        int b = int(rng.index(n));
        if (b == a) b = (b + 1) % n;
        switch (rng.index(4)) {
          case 0: qc.h(a); break;
          case 1: qc.s(a); break;
          case 2: qc.cx(a, b); break;
          case 3: qc.cz(a, b); break;
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(runClifford(qc).numQubits());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(qc.size()));
}
BENCHMARK(BM_StabilizerTableau)->Arg(16)->Arg(64)->Arg(256);

void
BM_QftFullStack(benchmark::State& state)
{
    // End-to-end: build QFT, lower it, simulate it.
    const int n = int(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            finalState(qa::algos::qft(n)).amplitudes().dim());
    }
}
BENCHMARK(BM_QftFullStack)->DenseRange(4, 12, 4);

} // namespace

BENCHMARK_MAIN();
