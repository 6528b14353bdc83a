/**
 * @file
 * Shot-execution engine tests: circuit analysis (prefix split rules and
 * the terminal-sampling fast path), bit-exact determinism across thread
 * counts, exact agreement between prefix-cached and naive per-shot
 * execution, the O(log d) sample table, the sorted
 * basisProbabilities container, warm samplers (answering from their
 * outcome tries) against fresh ones, and draw-for-draw equivalence of
 * Rng's lazy engine with std::mt19937_64.
 */
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "backend/backend.hpp"
#include "backend/outcome_trie.hpp"
#include "circuit/stdgates.hpp"
#include "common/error.hpp"
#include "sim/engine.hpp"
#include "sim/exact.hpp"
#include "sim/statevector.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

/** Layered pseudo-random circuit (no measurements). */
QuantumCircuit
layered(int n, int layers, uint64_t seed)
{
    QuantumCircuit qc(n);
    Rng rng(seed);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < n; ++q) {
            qc.u3(q, rng.uniform(0, 3), rng.uniform(0, 3),
                  rng.uniform(0, 3));
        }
        for (int q = 0; q + 1 < n; q += 2) qc.cx(q, q + 1);
    }
    return qc;
}

/** Circuit exercising every stochastic feature the engine handles. */
QuantumCircuit
kitchenSink(int n)
{
    QuantumCircuit qc(n, n);
    std::vector<int> ident;
    for (int q = 0; q < n; ++q) ident.push_back(q);
    qc.compose(layered(n, 2, 11), ident);
    qc.measure(0, 0); // mid-circuit measurement
    qc.reset(1);      // mid-circuit reset
    qc.compose(layered(n, 1, 12), ident);
    qc.measureAll();
    return qc;
}

TEST(ShotPlanTest, NoiselessTerminalMeasurementIsFastPath)
{
    QuantumCircuit qc(3, 3);
    qc.h(0);
    qc.cx(0, 1);
    qc.barrier();
    qc.measureAll();
    const ShotPlan plan = analyzeShotPlan(qc, nullptr);
    EXPECT_EQ(plan.split, 3u); // first measure (barrier is index 2)
    EXPECT_TRUE(plan.terminal_sampling);
}

TEST(ShotPlanTest, MidCircuitMeasurementDisablesFastPath)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.measure(0, 0);
    qc.cx(0, 1);
    qc.measure(1, 1);
    const ShotPlan plan = analyzeShotPlan(qc, nullptr);
    EXPECT_EQ(plan.split, 1u);
    EXPECT_FALSE(plan.terminal_sampling);
}

TEST(ShotPlanTest, NoiseModelSplitsAtFirstNoisyGate)
{
    // 2q-only depolarizing: 1q gates stay in the prefix, the first cx
    // is the split point.
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.h(1);
    qc.cx(0, 1);
    qc.measureAll();
    const NoiseModel noise = NoiseModel::depolarizing(0.0, 0.05);
    const ShotPlan plan = analyzeShotPlan(qc, &noise);
    EXPECT_EQ(plan.split, 2u);
    EXPECT_FALSE(plan.terminal_sampling);
}

TEST(ShotPlanTest, ReadoutOnlyNoiseKeepsFastPath)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.cx(0, 1);
    qc.measureAll();
    NoiseModel noise;
    noise.readout_p01 = 0.02;
    noise.readout_p10 = 0.05;
    const ShotPlan plan = analyzeShotPlan(qc, &noise);
    EXPECT_EQ(plan.split, 2u);
    EXPECT_TRUE(plan.terminal_sampling);
}

TEST(ShotPlanTest, DisabledNoiseModelIgnored)
{
    QuantumCircuit qc(1, 1);
    qc.h(0);
    qc.measure(0, 0);
    const NoiseModel empty;
    const ShotPlan plan = analyzeShotPlan(qc, &empty);
    EXPECT_EQ(plan.split, 1u);
    EXPECT_TRUE(plan.terminal_sampling);
}

TEST(SampleTableTest, MatchesDistribution)
{
    Statevector sv(2);
    sv.applyMatrix(gates::h(), {0});
    sv.applyMatrix(gates::cx(), {0, 1});
    SampleTable table(sv);
    Rng rng(3);
    int ones = 0;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t idx = table.sample(rng);
        EXPECT_TRUE(idx == 0 || idx == 3) << idx;
        if (idx == 3) ++ones;
    }
    EXPECT_NEAR(double(ones) / 20000.0, 0.5, 0.02);
}

TEST(EngineTest, SeededRunsBitIdenticalAcrossThreadCounts)
{
    const QuantumCircuit qc = kitchenSink(4);
    NoiseModel noise = NoiseModel::depolarizing(0.002, 0.01);
    noise.readout_p01 = 0.015;
    noise.readout_p10 = 0.035;

    SimOptions base;
    base.shots = 2048;
    base.seed = 77;
    base.noise = &noise;

    base.num_threads = 1;
    const Counts one = runShots(qc, base);
    for (int threads : {2, 8}) {
        SimOptions options = base;
        options.num_threads = threads;
        const Counts many = runShots(qc, options);
        EXPECT_EQ(one.map, many.map) << threads << " threads";
        EXPECT_EQ(many.shots, base.shots);
    }
}

TEST(EngineTest, TerminalSamplingBitIdenticalAcrossThreadCounts)
{
    QuantumCircuit qc(5, 5);
    std::vector<int> ident{0, 1, 2, 3, 4};
    qc.compose(layered(5, 3, 21), ident);
    qc.measureAll();

    SimOptions base;
    base.shots = 4096;
    base.seed = 123;
    base.num_threads = 1;
    const Counts one = runShots(qc, base);
    for (int threads : {2, 8}) {
        SimOptions options = base;
        options.num_threads = threads;
        EXPECT_EQ(one.map, runShots(qc, options).map)
            << threads << " threads";
    }
}

TEST(EngineTest, PrefixCachedAgreesExactlyWithNaive)
{
    // Mid-circuit measurement, reset, trajectory noise, and readout
    // error: on every replaying backend the cached plan must replay the
    // identical RNG stream the naive full-replay plan consumes.
    NoiseModel noise = NoiseModel::depolarizing(0.001, 0.02);
    noise.readout_p01 = 0.01;
    noise.readout_p10 = 0.03;

    // A Clifford circuit whose 1q gates are noise-free under 2q-only
    // Pauli depolarizing, so the prefix is non-empty either way.
    QuantumCircuit clifford(4, 5);
    clifford.h(0);
    clifford.s(1);
    clifford.h(2);
    clifford.cx(0, 1);
    clifford.cx(1, 2);
    clifford.measure(1, 4); // mid-circuit measurement
    clifford.reset(2);      // mid-circuit reset
    clifford.h(2);
    clifford.cz(2, 3);
    clifford.measureAll();
    NoiseModel pauli = NoiseModel::depolarizing(0.0, 0.03);
    pauli.readout_p01 = 0.02;
    pauli.readout_p10 = 0.04;

    NoiseModel readout;
    readout.readout_p01 = 0.02;
    readout.readout_p10 = 0.05;

    struct Case
    {
        BackendKind kind;
        BackendRequest request; ///< how the routed run reaches `kind`
        QuantumCircuit circuit;
        const NoiseModel* noise;
    };
    const Case cases[] = {
        {BackendKind::kStatevector, BackendRequest::kAuto, kitchenSink(3),
         nullptr},
        {BackendKind::kStatevector, BackendRequest::kAuto, kitchenSink(3),
         &noise},
        {BackendKind::kStabilizer, BackendRequest::kAuto, clifford, nullptr},
        {BackendKind::kStabilizer, BackendRequest::kAuto, clifford, &pauli},
        {BackendKind::kMps, BackendRequest::kMps, kitchenSink(3), nullptr},
        {BackendKind::kMps, BackendRequest::kMps, kitchenSink(3), &readout},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(std::string(backendName(c.kind)) +
                     (c.noise ? " noisy" : " noiseless"));
        SimOptions cached;
        cached.shots = 1024;
        cached.seed = 5150;
        cached.noise = c.noise;
        cached.backend = c.request;
        ASSERT_EQ(backend::route(c.circuit, cached).choice.backend, c.kind);
        const Counts naive = test::runReference(
            c.kind, c.circuit, cached, test::Reference::kReplayAll);
        EXPECT_EQ(runShots(c.circuit, cached).map, naive.map);
    }
}

TEST(EngineTest, FastPathMatchesExactDistribution)
{
    QuantumCircuit qc(3, 3);
    qc.h(0);
    qc.cx(0, 1);
    qc.u3(2, 1.1, 0.3, 0.2);
    qc.cx(2, 1);
    qc.measureAll();
    const Distribution exact = exactDistribution(qc);
    SimOptions options;
    options.shots = 40000;
    options.seed = 9;
    const Distribution sampled = runShots(qc, options).toDistribution();
    for (const auto& [bits, p] : exact.probs) {
        EXPECT_NEAR(sampled.probability(bits), p, 0.02) << bits;
    }
}

TEST(EngineTest, FastPathHandlesMeasuredSubset)
{
    // Only one qubit of a Bell pair is measured: the sampled marginal
    // must match, and unmeasured clbits stay '0'.
    QuantumCircuit qc(2, 1);
    qc.h(0);
    qc.cx(0, 1);
    qc.measure(1, 0);
    SimOptions options;
    options.shots = 20000;
    options.seed = 17;
    const Counts counts = runShots(qc, options);
    EXPECT_NEAR(counts.toDistribution().probability("1"), 0.5, 0.02);
}

TEST(EngineTest, ReadoutErrorOnFastPath)
{
    // |0> measured with P(0->1) = 0.1: the flip rate must survive the
    // classical fast path.
    QuantumCircuit qc(1, 1);
    qc.measure(0, 0);
    NoiseModel noise;
    noise.readout_p01 = 0.1;
    SimOptions options;
    options.shots = 40000;
    options.seed = 3;
    options.noise = &noise;
    const Counts counts = runShots(qc, options);
    EXPECT_NEAR(counts.toDistribution().probability("1"), 0.1, 0.01);
}

TEST(EngineTest, MeasurementFreeCircuit)
{
    QuantumCircuit qc(2);
    qc.h(0);
    SimOptions options;
    options.shots = 16;
    options.seed = 1;
    const Counts counts = runShots(qc, options);
    EXPECT_EQ(counts.shots, 16);
    ASSERT_EQ(counts.map.size(), 1u);
    EXPECT_EQ(counts.map.begin()->second, 16);
}

TEST(StatevectorApiTest, BasisProbabilitiesSortedAndMapAgree)
{
    Statevector sv(3);
    sv.applyMatrix(gates::h(), {0});
    sv.applyMatrix(gates::h(), {2});
    const auto sorted = sv.basisProbabilities(1e-9);
    ASSERT_EQ(sorted.size(), 4u);
    for (size_t i = 1; i < sorted.size(); ++i) {
        EXPECT_LT(sorted[i - 1].first, sorted[i].first);
    }
    const auto map = sv.basisProbabilitiesMap(1e-9);
    ASSERT_EQ(map.size(), sorted.size());
    for (const auto& [index, p] : sorted) {
        EXPECT_DOUBLE_EQ(map.at(index), p);
    }
}

TEST(ShotPoolTest, WorkerExceptionIsRethrownWithThreadsJoined)
{
    // A shot body that fails mid-run: the pool must join every worker
    // and rethrow the first exception on the calling thread instead of
    // calling std::terminate from a detached stack.
    std::vector<long> locals;
    EXPECT_THROW(
        runShotPool(
            100000, 4, 0.0, locals,
            [&]() {
                return [](int shot, long& local) {
                    if (shot == 54321) {
                        throw std::runtime_error("shot body failed");
                    }
                    ++local;
                };
            }),
        std::runtime_error);

    // The serial path funnels failures the same way.
    std::vector<long> serial_locals;
    EXPECT_THROW(runShotPool(100, 1, 0.0, serial_locals,
                             [&]() {
                                 return [](int shot, long&) {
                                     if (shot == 50) {
                                         throw UserError("serial body");
                                     }
                                 };
                             }),
                 UserError);
}

TEST(ShotPoolTest, ExceptionDuringDeadlineDrainJoinsCleanly)
{
    // Regression for the pool shutdown ordering: a worker throwing
    // while its siblings are already draining on an expired deadline
    // must not race the pool teardown. Whichever side wins — the
    // deadline truncating the run or the poisoned shot throwing — every
    // thread is joined before runShotPool unwinds and the per-worker
    // locals stay consistent (tier1 runs this under TSAN, which is what
    // actually checks the join ordering).
    for (int iter = 0; iter < 25; ++iter) {
        std::vector<long> locals;
        try {
            const ShotLoopStatus status = runShotPool(
                1 << 20, 4, 0.2, locals,
                [&]() {
                    return [](int shot, long& local) {
                        if ((shot & 4095) == 4095) {
                            throw std::runtime_error("poisoned shot");
                        }
                        ++local;
                    };
                });
            // The deadline beat every poisoned shot: a clean truncation.
            EXPECT_TRUE(status.truncated);
        } catch (const std::runtime_error&) {
            // A poisoned shot threw while the others drained: the
            // exception surfaced on this thread after a full join.
        }
        long total = 0;
        for (long local : locals) total += local;
        EXPECT_GE(total, 0);
    }
}

TEST(ShotPoolTest, CompletedRunsReportFullShotCount)
{
    std::vector<long> locals;
    const ShotLoopStatus status = runShotPool(
        1000, 3, 0.0, locals,
        [&]() { return [](int, long& local) { ++local; }; });
    EXPECT_EQ(status.completed, 1000);
    EXPECT_FALSE(status.truncated);
    long total = 0;
    for (long local : locals) total += local;
    EXPECT_EQ(total, 1000);
}

TEST(ShotPoolTest, ExpiredDeadlineTruncatesCooperatively)
{
    // Deadline already expired at entry: workers stop at their first
    // check and the status reports what (little) completed.
    std::vector<long> locals;
    const ShotLoopStatus status = runShotPool(
        1000000, 4, 1e-9, locals,
        [&]() { return [](int, long& local) { ++local; }; });
    EXPECT_TRUE(status.truncated);
    EXPECT_LT(status.completed, 1000000);
    long total = 0;
    for (long local : locals) total += local;
    EXPECT_EQ(total, status.completed);
}

TEST(EngineTest, DeadlineTruncationReturnsPartialCounts)
{
    // runShots with an immediately-expiring deadline: a valid partial
    // histogram flagged truncated, not an exception or a hang.
    QuantumCircuit qc(8, 8);
    std::vector<int> ident{0, 1, 2, 3, 4, 5, 6, 7};
    qc.compose(layered(8, 3, 5), ident);
    qc.measureAll();
    SimOptions options;
    options.shots = 500000;
    options.seed = 21;
    options.num_threads = 2;
    options.deadline_ms = 1e-6;
    const Counts counts = runShots(qc, options);
    EXPECT_TRUE(counts.truncated);
    EXPECT_LT(counts.shots, options.shots);
    int total = 0;
    for (const auto& [bits, n] : counts.map) total += n;
    EXPECT_EQ(total, counts.shots);

    // Unbounded runs stay un-truncated.
    options.shots = 64;
    options.deadline_ms = 0.0;
    const Counts full = runShots(qc, options);
    EXPECT_FALSE(full.truncated);
    EXPECT_EQ(full.shots, 64);
}

TEST(EngineTest, StatevectorSamplerReplaysOneShotDeterministically)
{
    QuantumCircuit qc = kitchenSink(4);
    const auto prepared =
        backend::backendFor(BackendKind::kStatevector)
            .prepare(qc, SimOptions{});
    const auto sampler = prepared->makeSampler();
    Rng a = Rng::forStream(9, 3);
    const std::string first = sampler->runOne(a);
    Rng b = Rng::forStream(9, 3);
    const std::string replay = sampler->runOne(b);
    EXPECT_EQ(first, replay);
    EXPECT_EQ(first.size(), size_t(qc.numClbits()));
}

// ---------------------------------------------------------------------
// Outcome-trie replay: a warm sampler answers from the outcome paths of
// its earlier shots, a fresh one replays; both must give the same bits.

/**
 * Distinct prefixes, the empty one included, over a set of equal-length
 * bitstrings: the outcome-trie nodes their paths need.
 */
size_t
distinctPrefixes(const std::set<std::string>& paths)
{
    std::set<std::string> prefixes;
    for (const std::string& path : paths) {
        for (size_t len = 0; len <= path.size(); ++len) {
            prefixes.insert(path.substr(0, len));
        }
    }
    return prefixes.size();
}

/** `kind`'s prepared circuit, the router's analysis unedited. */
std::shared_ptr<const backend::PreparedCircuit>
prepareOn(BackendKind kind, const QuantumCircuit& qc,
          const NoiseModel* noise)
{
    SimOptions options;
    options.noise = noise;
    return backend::backendFor(kind).prepare(qc, options);
}

TEST(EngineTest, OutcomeTrieWarmMatchesColdStatevector)
{
    // A mid-circuit measure and a reset, noise-free and under readout
    // error (the trie's gate), and under Kraus noise (no trie).
    NoiseModel readout;
    readout.readout_p01 = 0.02;
    readout.readout_p10 = 0.05;
    const NoiseModel kraus = NoiseModel::depolarizing(0.01, 0.03);
    const std::pair<const char*, const NoiseModel*> cases[] = {
        {"noise-free", nullptr}, {"readout", &readout}, {"kraus", &kraus}};
    for (const auto& [name, noise] : cases) {
        SCOPED_TRACE(name);
        test::expectWarmSamplerMatchesCold(
            *prepareOn(BackendKind::kStatevector, kitchenSink(4), noise),
            31, 400);
    }
}

TEST(EngineTest, OutcomeTrieWarmMatchesColdStabilizer)
{
    // GHZ: qubit 0's measurement is random, qubit 1's is then
    // deterministic; a reset and a fresh superposition follow.
    QuantumCircuit qc(5, 7);
    qc.h(0);
    for (int q = 0; q + 1 < 5; ++q) qc.cx(q, q + 1);
    qc.measure(0, 5);
    qc.measure(1, 6);
    qc.reset(2);
    qc.h(2);
    qc.cx(2, 3);
    qc.measureAll();
    NoiseModel readout;
    readout.readout_p01 = 0.02;
    readout.readout_p10 = 0.05;
    const std::pair<const char*, const NoiseModel*> cases[] = {
        {"noise-free", nullptr}, {"readout", &readout}};
    for (const auto& [name, noise] : cases) {
        SCOPED_TRACE(name);
        test::expectWarmSamplerMatchesCold(
            *prepareOn(BackendKind::kStabilizer, qc, noise), 32, 400);
    }
}

TEST(EngineTest, OutcomeTrieWarmMatchesColdPastNodeCap)
{
    // Sixteen fair coins in a row: 2^16 outcome paths, so the shots
    // below need more trie nodes than a sampler may hold.
    constexpr int kFlips = 16;
    constexpr int kShots = 1000;
    QuantumCircuit qc(1, kFlips);
    for (int c = 0; c < kFlips; ++c) {
        qc.h(0);
        qc.measure(0, c);
    }
    for (BackendKind kind :
         {BackendKind::kStatevector, BackendKind::kStabilizer}) {
        SCOPED_TRACE(backendName(kind));
        std::set<std::string> paths;
        test::expectWarmSamplerMatchesCold(*prepareOn(kind, qc, nullptr), 33,
                                           kShots, &paths);
        EXPECT_GT(distinctPrefixes(paths),
                  backend::OutcomeTrie::kMaxNodes);
    }
}

TEST(RngTest, StreamsDependOnlyOnSeedAndIndex)
{
    Rng a = Rng::forStream(42, 7);
    Rng b = Rng::forStream(42, 7);
    for (int i = 0; i < 8; ++i) {
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    }
    // Distinct streams diverge immediately.
    Rng c = Rng::forStream(42, 8);
    EXPECT_NE(Rng::forStream(42, 7).uniform(), c.uniform());
}

/**
 * Rng's wrappers spelled over std::mt19937_64, the reference its lazy
 * engine must reproduce draw for draw.
 */
struct ReferenceRng
{
    std::mt19937_64 engine;

    explicit ReferenceRng(uint64_t seed) : engine(seed) {}

    static ReferenceRng
    forStream(uint64_t seed, uint64_t stream)
    {
        return ReferenceRng(splitmix64(seed + 0x9E3779B97F4A7C15ULL * stream));
    }

    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine);
    }

    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine);
    }

    double
    normal()
    {
        return std::normal_distribution<double>(0.0, 1.0)(engine);
    }

    uint64_t
    index(uint64_t n)
    {
        return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine);
    }

    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(engine);
    }

    size_t
    discrete(const std::vector<double>& weights)
    {
        double total = 0.0;
        for (double w : weights) total += w;
        const double draw = uniform() * total;
        double acc = 0.0;
        for (size_t i = 0; i < weights.size(); ++i) {
            acc += weights[i];
            if (draw < acc) return i;
        }
        return weights.empty() ? 0 : weights.size() - 1;
    }
};

/**
 * Number of calls of `draw` (a generic lambda over Rng or ReferenceRng)
 * that differ between the two, over `calls` calls on each given pair.
 */
template <class Draw>
int
countMismatches(Rng& rng, ReferenceRng& ref, int calls, Draw draw)
{
    int mismatches = 0;
    for (int i = 0; i < calls; ++i) {
        if (draw(rng) != draw(ref)) ++mismatches;
    }
    return mismatches;
}

TEST(RngTest, EveryWrapperMatchesStdMt19937OverManyStreams)
{
    // 700 calls per stream: every stream crosses engine draws 156 (end of
    // the lazy phase), 312 and 624 (full twists).
    constexpr int kStreams = 1000;
    constexpr int kCalls = 700;
    const std::vector<double> weights{0.1, 0.0, 2.5, 0.4, 1.0};
    auto check = [&](const char* name, auto draw) {
        int mismatches = 0;
        for (uint64_t s = 0; s < kStreams; ++s) {
            Rng rng = Rng::forStream(2021, s);
            ReferenceRng ref = ReferenceRng::forStream(2021, s);
            mismatches += countMismatches(rng, ref, kCalls, draw);
        }
        EXPECT_EQ(mismatches, 0) << name;
    };
    check("uniform()", [](auto& r) { return r.uniform(); });
    check("uniform(lo, hi)", [](auto& r) { return r.uniform(-3.0, 5.5); });
    check("normal()", [](auto& r) { return r.normal(); });
    check("bernoulli(0.3)", [](auto& r) { return r.bernoulli(0.3); });
    check("discrete(w)", [&](auto& r) { return r.discrete(weights); });
    check("index(1)", [](auto& r) { return r.index(1); });
    check("index(3)", [](auto& r) { return r.index(3); });
    check("index(2^40+7)",
          [](auto& r) { return r.index((uint64_t(1) << 40) + 7); });
}

TEST(RngTest, ExplicitSeedsMatchStdMt19937)
{
    // index(2^40+7) takes the full 64 bits of each engine draw (a
    // rejection step can take two), uniform() the top 53.
    for (uint64_t seed : {uint64_t(0), uint64_t(1), ~uint64_t(0)}) {
        Rng rng(seed);
        ReferenceRng ref(seed);
        EXPECT_EQ(countMismatches(rng, ref, 1000, [](auto& r) {
                      return r.index((uint64_t(1) << 40) + 7);
                  }),
                  0)
            << "seed " << seed;
        EXPECT_EQ(countMismatches(rng, ref, 1000,
                                  [](auto& r) { return r.uniform(); }),
                  0)
            << "seed " << seed;
    }
}

TEST(RngTest, CopiesContinueIdenticallyAtEveryPhase)
{
    // Copy points in the lazy phase (0, 155), at its end (156), just past
    // it (157) and in the second pass (400).
    for (int taken : {0, 155, 156, 157, 400}) {
        Rng original = Rng::forStream(5, uint64_t(taken));
        ReferenceRng ref = ReferenceRng::forStream(5, uint64_t(taken));
        for (int i = 0; i < taken; ++i) {
            original.uniform();
            ref.uniform();
        }
        Rng copy = original;
        Rng assigned(0);
        assigned = original;
        // Each continues alone: the copy's draws must not move the
        // original's state, nor the other way round.
        std::vector<double> from_copy, from_assigned;
        for (int i = 0; i < 700; ++i) from_copy.push_back(copy.uniform());
        for (int i = 0; i < 700; ++i) {
            from_assigned.push_back(assigned.uniform());
        }
        int mismatches = 0;
        for (int i = 0; i < 700; ++i) {
            const double expected = ref.uniform();
            const double got = original.uniform();
            if (got != expected || from_copy[size_t(i)] != expected ||
                from_assigned[size_t(i)] != expected) {
                ++mismatches;
            }
        }
        EXPECT_EQ(mismatches, 0) << "copied after " << taken << " draws";
    }
}

} // namespace
} // namespace qa
