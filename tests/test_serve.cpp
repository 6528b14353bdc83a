/**
 * @file
 * Tests for the assertion service layer (src/serve): structural job
 * hashing, the LRU result cache, scheduler determinism across worker
 * counts, backpressure/priority/deadline behaviour, the JSON parser,
 * the qassertd wire protocol, and the serve loop over a real socket.
 */
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algos/states.hpp"
#include "circuit/hash.hpp"
#include "common/error.hpp"
#include "common/net.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/runner.hpp"
#include "linalg/states.hpp"
#include "resilience/journal.hpp"
#include "serve/replay.hpp"
#include "serve/cache.hpp"
#include "serve/job.hpp"
#include "serve/json.hpp"
#include "serve/listen.hpp"
#include "serve/metrics.hpp"
#include "serve/scheduler.hpp"
#include "serve/wire.hpp"
#include "synth/state_prep.hpp"

namespace qa
{
namespace serve
{
namespace
{

using namespace algos;

/** Bit-exact equality over everything a Counts carries. */
void
expectCountsIdentical(const Counts& a, const Counts& b)
{
    EXPECT_EQ(a.map, b.map);
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.truncated, b.truncated);
}

/** Bit-exact equality of two job results (modulo timing fields). */
void
expectResultsIdentical(const JobResult& a, const JobResult& b)
{
    EXPECT_EQ(int(a.status), int(b.status));
    expectCountsIdentical(a.counts, b.counts);
    expectCountsIdentical(a.program_counts, b.program_counts);
    EXPECT_EQ(a.slot_error_rate, b.slot_error_rate);
    EXPECT_EQ(a.pass_rate, b.pass_rate);
    EXPECT_EQ(a.truncated, b.truncated);
}

/** A small stochastic job: H on each qubit, slot over clbit 0. */
JobSpec
coinSpec(uint64_t seed, int shots = 256)
{
    JobSpec spec;
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.h(1);
    qc.measure(0, 0);
    qc.measure(1, 1);
    spec.circuit = qc;
    spec.assert_clbits = {{0}};
    spec.shots = shots;
    spec.seed = seed;
    return spec;
}

// ---------------------------------------------------------------------
// Structural hashing
// ---------------------------------------------------------------------

TEST(HashTest, CircuitHashIsStructural)
{
    EXPECT_EQ(circuitHash(ghzPrep(3)), circuitHash(ghzPrep(3)));
    EXPECT_NE(circuitHash(ghzPrep(3)), circuitHash(ghzPrep(4)));
    EXPECT_NE(circuitHash(ghzPrep(3)), circuitHash(wPrep(3)));

    QuantumCircuit a(1), b(1);
    a.rz(0, 0.5);
    b.rz(0, 0.5 + 1e-12);
    EXPECT_NE(circuitHash(a), circuitHash(b));

    // -0.0 and 0.0 encode the same rotation and must hash alike.
    QuantumCircuit pos(1), neg(1);
    pos.rz(0, 0.0);
    neg.rz(0, -0.0);
    EXPECT_EQ(circuitHash(pos), circuitHash(neg));

    EXPECT_EQ(circuitHash(a).str().size(), 32u);
}

TEST(HashTest, NoiseFingerprintIsSemantic)
{
    const NoiseModel none;
    EXPECT_EQ(none.fingerprint(), NoiseModel{}.fingerprint());
    EXPECT_NE(none.fingerprint(),
              NoiseModel::ibmqMelbourneLike().fingerprint());
    EXPECT_NE(NoiseModel::depolarizing(0.01, 0.05).fingerprint(),
              NoiseModel::depolarizing(0.02, 0.05).fingerprint());
    EXPECT_EQ(NoiseModel::depolarizing(0.01, 0.05).fingerprint(),
              NoiseModel::depolarizing(0.01, 0.05).fingerprint());
}

TEST(JobTest, KeyCoversResultInputsOnly)
{
    const JobSpec base = coinSpec(7);
    const Hash128 key = jobKey(base);

    // Execution knobs that cannot change the payload share the key.
    JobSpec threads = base;
    threads.num_threads = 8;
    threads.deadline_ms = 50.0;
    threads.priority = 9;
    threads.tag = "other";
    EXPECT_EQ(jobKey(threads), key);

    // Everything the result depends on separates it.
    JobSpec seed = base;
    seed.seed = 8;
    EXPECT_NE(jobKey(seed), key);
    JobSpec shots = base;
    shots.shots = 512;
    EXPECT_NE(jobKey(shots), key);
    JobSpec slots = base;
    slots.assert_clbits = {{1}};
    EXPECT_NE(jobKey(slots), key);
    JobSpec noisy = base;
    noisy.noise = NoiseModel::depolarizing(0.01, 0.02);
    EXPECT_NE(jobKey(noisy), key);
    JobSpec circuit = base;
    circuit.circuit.x(1);
    EXPECT_NE(jobKey(circuit), key);
}

// ---------------------------------------------------------------------
// executeJob
// ---------------------------------------------------------------------

TEST(JobTest, PlainPathPostSelectsOnSlots)
{
    // Deterministic failure: clbit 0 always reads 1.
    JobSpec fail;
    QuantumCircuit qc(2, 2);
    qc.x(0);
    qc.x(1);
    qc.measure(0, 0);
    qc.measure(1, 1);
    fail.circuit = qc;
    fail.assert_clbits = {{0}};
    fail.shots = 64;
    const JobResult failed = executeJob(fail);
    EXPECT_EQ(int(failed.status), int(JobStatus::kOk));
    EXPECT_EQ(failed.pass_rate, 0.0);
    ASSERT_EQ(failed.slot_error_rate.size(), 1u);
    EXPECT_EQ(failed.slot_error_rate[0], 1.0);
    EXPECT_TRUE(failed.program_counts.map.empty());
    EXPECT_EQ(failed.program_counts.shots, 0);

    // Stochastic slot: accepted histogram is the post-selection of the
    // raw one, restricted to the non-assert clbit.
    const JobResult coin = executeJob(coinSpec(11));
    int accepted = 0;
    for (const auto& [bits, n] : coin.counts.map) {
        if (bits[0] == '0') accepted += n;
    }
    EXPECT_GT(accepted, 0);
    EXPECT_EQ(coin.program_counts.shots, accepted);
    EXPECT_DOUBLE_EQ(coin.pass_rate,
                     double(accepted) / double(coin.counts.shots));
    for (const auto& [bits, n] : coin.program_counts.map) {
        EXPECT_EQ(bits.size(), 1u); // clbit 1 only
        (void)n;
    }

    // At any shot count a slot's rate is its flagged share of the shots,
    // the same division runAsserted and the policy run make.
    const JobResult odd = executeJob(coinSpec(11, 100));
    const int flagged = odd.counts.shots - odd.program_counts.shots;
    ASSERT_EQ(odd.slot_error_rate.size(), 1u);
    EXPECT_EQ(odd.slot_error_rate[0], double(flagged) / 100.0);
}

TEST(JobTest, PlainPathRejectsBadSpecs)
{
    JobSpec repair = coinSpec(1);
    repair.policy = AssertionPolicy::kRepair;
    try {
        executeJob(repair);
        FAIL() << "kRepair must be rejected on the plain path";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kPolicyUnsupported);
    }

    JobSpec out_of_range = coinSpec(1);
    out_of_range.assert_clbits = {{5}};
    try {
        executeJob(out_of_range);
        FAIL() << "out-of-range slot clbit must be rejected";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
    }
}

TEST(JobTest, ProgramPathMatchesDirectPolicyRun)
{
    auto program = std::make_shared<AssertedProgram>(ghzPrep(3));
    program->assertState({0, 1, 2}, StateSet::pure(ghzVector(3)),
                         AssertionDesign::kSwap);
    program->measureProgram();

    JobSpec spec;
    spec.program = program;
    spec.policy = AssertionPolicy::kDiscard;
    spec.shots = 200;
    spec.seed = 99;
    const JobResult via_job = executeJob(spec);

    SimOptions options;
    options.shots = 200;
    options.seed = 99;
    PolicyOptions popts;
    popts.policy = AssertionPolicy::kDiscard;
    const PolicyOutcome direct =
        runAssertedPolicy(*program, options, popts);

    expectCountsIdentical(via_job.counts, direct.raw);
    expectCountsIdentical(via_job.program_counts, direct.program_counts);
    EXPECT_EQ(via_job.slot_error_rate, direct.slot_error_rate);
    EXPECT_EQ(via_job.pass_rate, direct.pass_rate);
}

// ---------------------------------------------------------------------
// Pinned payload digests: one small spec per executeJob shape. Journal
// replay compares against digests like these, so a change here means
// journals written by an earlier build fail to replay bit-identically.
// ---------------------------------------------------------------------

/** Pseudo-random u3 + cx layers on n qubits (n clbits, unmeasured). */
QuantumCircuit
layered(int n, int layers, uint64_t seed)
{
    QuantumCircuit qc(n, n);
    Rng rng(seed);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < n; ++q) {
            qc.u3(q, rng.uniform(0, 3), rng.uniform(0, 3),
                  rng.uniform(0, 3));
        }
        for (int q = l % 2; q + 1 < n; q += 2) qc.cx(q, q + 1);
    }
    return qc;
}

QuantumCircuit
layeredMeasured(int n, int layers, uint64_t seed)
{
    QuantumCircuit qc = layered(n, layers, seed);
    qc.measureAll();
    return qc;
}

/** Imperfect Bell pair under a SWAP-design assertion of the Bell state. */
std::shared_ptr<const AssertedProgram>
noisyBellProgram()
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.cx(0, 1);
    qc.rx(0, 0.5);
    auto program = std::make_shared<AssertedProgram>(qc);
    program->assertState({0, 1}, StateSet::pure(ghzVector(2)),
                         AssertionDesign::kSwap);
    program->measureProgram();
    return program;
}

std::vector<std::pair<std::string, JobSpec>>
digestSpecs()
{
    std::vector<std::pair<std::string, JobSpec>> specs;
    auto add = [&](const std::string& name, JobSpec spec, uint64_t seed) {
        spec.shots = 512;
        spec.seed = seed;
        spec.num_threads = 2;
        specs.emplace_back(name, std::move(spec));
    };

    JobSpec plain;
    plain.circuit = layeredMeasured(5, 3, 5);
    add("plain", plain, 11);

    JobSpec slots;
    QuantumCircuit sq(3, 3);
    sq.h(0);
    sq.cx(0, 1);
    sq.ry(2, 0.7);
    sq.measureAll();
    slots.circuit = sq;
    slots.assert_clbits = {{2}};
    add("plain_assert_clbits", slots, 12);

    JobSpec mid;
    QuantumCircuit mq(4, 4);
    mq.compose(layered(4, 2, 6), {0, 1, 2, 3});
    mq.measure(0, 0);
    mq.reset(1);
    mq.compose(layered(4, 1, 7), {0, 1, 2, 3});
    mq.measureAll();
    mid.circuit = mq;
    add("plain_mid_circuit", mid, 13);

    JobSpec trajectory;
    trajectory.circuit = layeredMeasured(4, 2, 8);
    trajectory.noise = NoiseModel::depolarizing(0.01, 0.03);
    trajectory.backend = BackendRequest::kStatevector;
    add("statevector_trajectory", trajectory, 14);

    const AssertionPolicy policies[] = {AssertionPolicy::kDiscard,
                                        AssertionPolicy::kRepair};
    for (AssertionPolicy policy : policies) {
        JobSpec program;
        program.program = noisyBellProgram();
        program.policy = policy;
        add(std::string("program_") + policyName(policy), program, 15);
    }

    // A noisy auto-asserted GHZ-3 under the default (discard) policy:
    // flagged shots stay in `counts` and leave `program_counts`.
    JobSpec discard;
    QuantumCircuit ghz(3, 3);
    ghz.h(0);
    ghz.cx(0, 1);
    ghz.cx(1, 2);
    ghz.measureAll();
    discard.circuit = ghz;
    discard.auto_assert = true;
    discard.noise = NoiseModel::depolarizing(0.01, 0.02);
    add("auto_assert_discard", discard, 16);

    JobSpec density;
    density.circuit = layeredMeasured(4, 2, 9);
    density.noise = NoiseModel::ibmqMelbourneLike();
    density.backend = BackendRequest::kDensityMatrix;
    add("density_melbourne", density, 17);

    JobSpec stabilizer;
    QuantumCircuit stab(6, 6);
    stab.h(0);
    for (int q = 0; q + 1 < 6; ++q) stab.cx(q, q + 1);
    stab.measure(0, 0);
    stab.h(3);
    stab.measureAll();
    stabilizer.circuit = stab;
    stabilizer.backend = BackendRequest::kStabilizer;
    add("stabilizer", stabilizer, 18);

    JobSpec mps;
    mps.circuit = layeredMeasured(6, 3, 10);
    mps.backend = BackendRequest::kMps;
    add("mps_chain", mps, 19);

    // Readout-only noise keeps the density backend on its fused stream
    // (density_melbourne's Kraus channels keep it on the raw gates).
    JobSpec density_readout;
    density_readout.circuit = layeredMeasured(4, 2, 20);
    density_readout.noise.readout_p01 = 0.02;
    density_readout.noise.readout_p10 = 0.05;
    density_readout.backend = BackendRequest::kDensityMatrix;
    add("density_readout_only", density_readout, 20);

    // Terminal sampling with readout flips on the statevector backend.
    JobSpec readout;
    readout.circuit = layeredMeasured(5, 3, 21);
    readout.noise.readout_p01 = 0.02;
    readout.noise.readout_p10 = 0.05;
    add("statevector_readout", readout, 21);

    // Mid-circuit measure and reset replayed under readout-only noise.
    JobSpec mid_readout;
    mid_readout.circuit = mq;
    mid_readout.noise.readout_p01 = 0.02;
    mid_readout.noise.readout_p10 = 0.05;
    mid_readout.backend = BackendRequest::kStatevector;
    add("statevector_mid_circuit_readout", mid_readout, 22);

    // GHZ: measuring qubit 0 is random, then qubit 1 is deterministic;
    // a reset and a fresh superposition follow before the final read.
    JobSpec stab_readout;
    QuantumCircuit sr(5, 7);
    sr.h(0);
    for (int q = 0; q + 1 < 5; ++q) sr.cx(q, q + 1);
    sr.measure(0, 5);
    sr.measure(1, 6);
    sr.reset(2);
    sr.h(2);
    sr.cx(2, 3);
    sr.measureAll();
    stab_readout.circuit = sr;
    stab_readout.noise.readout_p01 = 0.02;
    stab_readout.noise.readout_p10 = 0.05;
    stab_readout.backend = BackendRequest::kStabilizer;
    add("stabilizer_mid_circuit_readout", stab_readout, 23);

    // A SWAP assertion's ancilla is measured and reset mid-circuit, so
    // MPS shots replay a suffix before the terminal sample.
    QuantumCircuit chain(6);
    chain.compose(layered(4, 2, 24), {2, 3, 4, 5});
    chain.h(0);
    chain.cx(0, 1);
    chain.rx(0, 0.5);
    AssertedProgram asserted(chain);
    asserted.assertState({0, 1}, StateSet::pure(ghzVector(2)),
                         AssertionDesign::kSwap);
    QuantumCircuit after(6);
    after.compose(layered(6, 1, 25), {0, 1, 2, 3, 4, 5});
    asserted.append(after);
    asserted.measureProgram();
    JobSpec mps_assert;
    mps_assert.circuit = asserted.circuit();
    mps_assert.assert_clbits = {asserted.assertionClbits()};
    mps_assert.noise.readout_p01 = 0.02;
    mps_assert.noise.readout_p10 = 0.05;
    mps_assert.backend = BackendRequest::kMps;
    add("mps_mid_circuit_assert", mps_assert, 25);
    return specs;
}

TEST(JobTest, PayloadDigestsMatchPinnedValues)
{
    const std::map<std::string, std::string> pinned = {
        {"plain", "2608ece52e8a767585c9970603a11b0d"},
        {"plain_assert_clbits", "c73447e044e2f136af3efebffa0d3c31"},
        {"plain_mid_circuit", "e044aa891bb3d9c3d1f4e534910f72c9"},
        {"statevector_trajectory", "72256382a157f65fb2879e2da78822fa"},
        {"program_discard", "13c280f3af808dc89d2b037c130964df"},
        {"program_repair", "6484fec940779a72c193bcdf7ff20e7c"},
        {"auto_assert_discard", "db84e8e44a9f72cd5b32ee3de96cf339"},
        {"density_melbourne", "66b6672b7dd106eaf5dab41742d88177"},
        {"stabilizer", "26051371c39bb4bdfd4ff4c7b1d565d8"},
        {"mps_chain", "d47a8ba543bec0de6d5aa77b8a3bf21e"},
        {"density_readout_only", "8dc9b5d2a3cfd785bc41c93ae41e6f45"},
        {"statevector_readout", "fd2a411c53fe76c1af18f7c84a3802c5"},
        {"statevector_mid_circuit_readout",
         "f75e2cbb4740444bccb2884a6cb5d9bb"},
        {"stabilizer_mid_circuit_readout",
         "947b4923ed8eacbf0bdb2251a4d158ad"},
        {"mps_mid_circuit_assert", "d3efe074513215896331c26b0c443e8f"},
    };
    const std::vector<std::pair<std::string, JobSpec>> specs = digestSpecs();
    ASSERT_EQ(specs.size(), pinned.size());
    for (const auto& [name, spec] : specs) {
        SCOPED_TRACE(name);
        EXPECT_EQ(payloadHash(executeJob(spec)).str(), pinned.at(name));
    }
}

TEST(JobTest, ShotLoopIsThreadCountDeterministic)
{
    // One plain job and one auto-asserted discard-policy job through the
    // one shot loop at 1, 2 and 8 threads (tier1 runs this under TSan).
    for (const auto& [name, spec] : digestSpecs()) {
        if (name != "plain" && name != "auto_assert_discard") {
            continue;
        }
        SCOPED_TRACE(name);
        JobSpec one = spec;
        one.num_threads = 1;
        const JobResult reference = executeJob(one);
        EXPECT_EQ(reference.assert_variants, 1);
        for (int threads : {2, 8}) {
            JobSpec many = spec;
            many.num_threads = threads;
            EXPECT_EQ(payloadHash(executeJob(many)), payloadHash(reference))
                << threads << " threads";
        }
    }
}

TEST(JobTest, EveryPathReportsEveryShot)
{
    // One reply shape: on the plain, program and auto_assert paths,
    // under either policy, `counts` holds every completed shot and
    // `program_counts` the accepted ones (the passing shots under
    // discard, every shot under repair). Noise makes some shots flag.
    const NoiseModel noise = NoiseModel::depolarizing(0.01, 0.05);
    QuantumCircuit ghz(3, 3);
    ghz.h(0);
    ghz.cx(0, 1);
    ghz.cx(1, 2);
    ghz.measureAll();

    std::vector<std::pair<std::string, JobSpec>> paths;
    JobSpec plain = coinSpec(31);
    plain.circuit = ghz;
    plain.assert_clbits = {{2}};
    paths.emplace_back("plain_assert_clbits", plain);
    for (AssertionPolicy policy :
         {AssertionPolicy::kDiscard, AssertionPolicy::kRepair}) {
        JobSpec program;
        program.program = noisyBellProgram();
        program.policy = policy;
        paths.emplace_back(std::string("program_") + policyName(policy),
                           program);
    }
    JobSpec autoassert;
    autoassert.circuit = ghz;
    autoassert.auto_assert = true;
    paths.emplace_back("auto_assert", autoassert);

    for (auto& [name, spec] : paths) {
        spec.noise = noise;
        spec.shots = 256;
        spec.seed = 3;
        const bool repair = spec.policy == AssertionPolicy::kRepair;
        Hash128 reference;
        for (int threads : {1, 2, 8}) {
            SCOPED_TRACE(name + " at " + std::to_string(threads) +
                         " threads");
            spec.num_threads = threads;
            const JobResult result = executeJob(spec);
            ASSERT_EQ(int(result.status), int(JobStatus::kOk));
            EXPECT_EQ(result.counts.shots, spec.shots);
            int total = 0;
            for (const auto& [bits, n] : result.counts.map) total += n;
            EXPECT_EQ(total, result.counts.shots);
            ASSERT_FALSE(result.slot_error_rate.empty());
            EXPECT_LT(result.pass_rate, 1.0);
            if (repair) {
                EXPECT_EQ(result.program_counts.shots, spec.shots);
            } else {
                // 256 shots: pass_rate x shots is exact in a double.
                EXPECT_EQ(double(result.program_counts.shots),
                          result.pass_rate * spec.shots);
            }
            if (threads == 1) reference = payloadHash(result);
            EXPECT_EQ(payloadHash(result), reference);
        }
    }
}

// ---------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------

JobResult
okResult(int marker)
{
    JobResult r;
    r.counts.shots = marker;
    r.counts.map["0"] = marker;
    r.program_counts = r.counts;
    return r;
}

Hash128
keyOf(uint64_t tag)
{
    HashStream s(tag);
    s.u64(tag);
    return s.digest();
}

TEST(CacheTest, LruEvictsColdestAndCountsEverything)
{
    ResultCache cache(2);
    EXPECT_FALSE(cache.get(keyOf(1)).has_value()); // miss
    EXPECT_TRUE(cache.put(keyOf(1), okResult(1)));
    EXPECT_TRUE(cache.put(keyOf(2), okResult(2)));

    // Refresh key 1, then insert key 3: key 2 is now the LRU victim.
    EXPECT_TRUE(cache.get(keyOf(1)).has_value());
    EXPECT_TRUE(cache.put(keyOf(3), okResult(3)));
    EXPECT_FALSE(cache.get(keyOf(2)).has_value());
    ASSERT_TRUE(cache.get(keyOf(1)).has_value());
    EXPECT_EQ(cache.get(keyOf(1))->counts.shots, 1);
    EXPECT_TRUE(cache.get(keyOf(3)).has_value());

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.capacity, 2u);
    EXPECT_EQ(stats.insertions, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_GT(stats.hitRate(), 0.5);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_FALSE(cache.get(keyOf(1)).has_value());
}

TEST(CacheTest, OnlyCleanResultsAreAdmitted)
{
    ResultCache cache(4);
    JobResult truncated = okResult(1);
    truncated.truncated = true;
    EXPECT_FALSE(cache.put(keyOf(1), truncated));

    JobResult failed = okResult(2);
    failed.status = JobStatus::kFailed;
    EXPECT_FALSE(cache.put(keyOf(2), failed));

    ResultCache disabled(0);
    EXPECT_FALSE(disabled.put(keyOf(3), okResult(3)));
    EXPECT_FALSE(disabled.get(keyOf(3)).has_value());
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

TEST(SchedulerTest, ResultsAreBitIdenticalAcrossWorkerCounts)
{
    // The acceptance bar: per-job payloads must not depend on pool
    // size, arrival order, or which worker drew the job.
    std::vector<JobSpec> specs;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        JobSpec spec = coinSpec(seed, 128 + int(seed) * 16);
        spec.use_cache = false;
        specs.push_back(spec);
    }

    std::vector<JobResult> reference;
    for (const JobSpec& spec : specs) {
        reference.push_back(executeJob(spec));
    }

    for (int workers : {1, 2, 8}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        SchedulerOptions options;
        options.workers = workers;
        Scheduler scheduler(options);
        std::vector<std::future<JobResult>> futures;
        for (const JobSpec& spec : specs) {
            futures.push_back(scheduler.submit(spec));
        }
        for (size_t i = 0; i < futures.size(); ++i) {
            SCOPED_TRACE("job " + std::to_string(i));
            const JobResult result = futures[i].get();
            EXPECT_FALSE(result.cache_hit);
            expectResultsIdentical(result, reference[i]);
        }
    }
}

TEST(SchedulerTest, CacheHitsAreBitIdenticalToUncachedExecution)
{
    SchedulerOptions options;
    options.workers = 4;
    options.cache_capacity = 64;
    Scheduler scheduler(options);

    const JobSpec spec = coinSpec(42);
    const JobResult reference = executeJob(spec);

    const JobResult first = scheduler.submit(spec).get();
    EXPECT_FALSE(first.cache_hit);
    expectResultsIdentical(first, reference);

    // Resubmit with different execution knobs: still the same key.
    JobSpec again = spec;
    again.num_threads = 2;
    again.priority = 3;
    const JobResult second = scheduler.submit(again).get();
    EXPECT_TRUE(second.cache_hit);
    expectResultsIdentical(second, reference);

    const CacheStats stats = scheduler.cacheStats();
    EXPECT_GE(stats.hits, 1u);
    EXPECT_GE(stats.insertions, 1u);
    const MetricsSnapshot metrics = scheduler.metrics();
    EXPECT_EQ(metrics.completed, 2u);
    EXPECT_GE(metrics.cache_hits, 1u);
    EXPECT_GT(metrics.cacheHitRate(), 0.0);
}

TEST(SchedulerTest, FullQueueRejectsWithTypedError)
{
    SchedulerOptions options;
    options.workers = 1;
    options.queue_capacity = 2;
    options.start_paused = true;
    Scheduler scheduler(options);

    std::vector<std::future<JobResult>> futures;
    futures.push_back(scheduler.submit(coinSpec(1, 32)));
    futures.push_back(scheduler.submit(coinSpec(2, 32)));
    try {
        scheduler.submit(coinSpec(3, 32));
        FAIL() << "third submission must hit admission control";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kQueueFull);
    }
    EXPECT_EQ(scheduler.metrics().rejected, 1u);
    EXPECT_EQ(scheduler.metrics().queue_depth, 2u);

    // The rejected job consumed no slot: the admitted ones still run.
    scheduler.resume();
    for (auto& f : futures) {
        EXPECT_EQ(int(f.get().status), int(JobStatus::kOk));
    }
    scheduler.drain();
    EXPECT_EQ(scheduler.metrics().completed, 2u);
}

TEST(SchedulerTest, HigherPriorityRunsFirstFifoWithin)
{
    SchedulerOptions options;
    options.workers = 1;
    options.start_paused = true;
    Scheduler scheduler(options);

    std::mutex order_mutex;
    std::vector<std::string> order;
    auto record = [&](JobResult result) {
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(result.tag);
    };
    auto submit = [&](const std::string& tag, int priority) {
        JobSpec spec = coinSpec(uint64_t(priority + 1), 16);
        spec.tag = tag;
        spec.priority = priority;
        scheduler.submit(std::move(spec), record);
    };
    submit("low-a", 0);
    submit("high", 5);
    submit("mid", 1);
    submit("low-b", 0);

    scheduler.resume();
    scheduler.drain();
    const std::vector<std::string> expected = {"high", "mid", "low-a",
                                               "low-b"};
    EXPECT_EQ(order, expected);
}

TEST(SchedulerTest, ElapsedDeadlineTruncatesWithoutStalling)
{
    SchedulerOptions options;
    options.workers = 2;
    Scheduler scheduler(options);

    // A mid-circuit measurement defeats the terminal-sampling fast
    // path, so every shot replays the suffix: 2M shots is far more
    // than a few milliseconds of work on any machine.
    JobSpec spec;
    QuantumCircuit big(10, 10);
    big.h(0);
    big.measure(0, 0);
    for (int q = 1; q < 10; ++q) big.cx(q - 1, q);
    for (int q = 1; q < 10; ++q) big.measure(q, q);
    spec.circuit = big;
    spec.shots = 2000000;
    spec.deadline_ms = 3.0;

    const JobResult result = scheduler.submit(spec).get();
    EXPECT_EQ(int(result.status), int(JobStatus::kOk));
    EXPECT_TRUE(result.truncated);
    EXPECT_TRUE(result.counts.truncated);
    EXPECT_LT(result.counts.shots, spec.shots);

    // Truncated payloads are timing-dependent and must never be cached.
    EXPECT_EQ(scheduler.cacheStats().insertions, 0u);
    scheduler.drain(); // returns promptly: nothing leaked or stalled
}

TEST(SchedulerTest, StopCancelsQueuedJobsAndRejectsNewOnes)
{
    SchedulerOptions options;
    options.workers = 1;
    options.start_paused = true;
    Scheduler scheduler(options);

    auto queued = scheduler.submit(coinSpec(1, 32));
    scheduler.stop();

    const JobResult cancelled = queued.get();
    EXPECT_EQ(int(cancelled.status), int(JobStatus::kCancelled));
    EXPECT_EQ(cancelled.error_code, ErrorCode::kServiceStopped);
    EXPECT_EQ(scheduler.metrics().cancelled, 1u);

    try {
        scheduler.submit(coinSpec(2, 32));
        FAIL() << "submit after stop must be rejected";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kServiceStopped);
    }
}

TEST(SchedulerTest, InvalidSpecsFailTheJobNotTheService)
{
    SchedulerOptions options;
    options.workers = 2;
    Scheduler scheduler(options);

    JobSpec bad = coinSpec(1);
    bad.assert_clbits = {{9}};
    const JobResult failed = scheduler.submit(bad).get();
    EXPECT_EQ(int(failed.status), int(JobStatus::kFailed));
    EXPECT_EQ(failed.error_code, ErrorCode::kBadRequest);
    EXPECT_FALSE(failed.error_message.empty());
    EXPECT_EQ(scheduler.metrics().failed, 1u);

    // The pool survives and still serves good jobs.
    const JobResult ok = scheduler.submit(coinSpec(2)).get();
    EXPECT_EQ(int(ok.status), int(JobStatus::kOk));
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

TEST(JsonTest, ParsesTheFullGrammar)
{
    const JsonValue v = JsonValue::parse(
        R"({"s":"a\n\u0041","n":-1.5e2,"i":42,"b":true,"z":null,)"
        R"("arr":[1,[2],{"k":3}],"obj":{}})");
    EXPECT_EQ(v.find("s")->asString(), "a\nA");
    EXPECT_DOUBLE_EQ(v.find("n")->asNumber(), -150.0);
    EXPECT_EQ(v.find("i")->asInt(), 42);
    EXPECT_TRUE(v.find("b")->asBool());
    EXPECT_TRUE(v.find("z")->isNull());
    ASSERT_EQ(v.find("arr")->asArray().size(), 3u);
    EXPECT_EQ(v.find("arr")->asArray()[2].find("k")->asInt(), 3);
    EXPECT_TRUE(v.find("obj")->asObject().empty());
    EXPECT_EQ(v.find("missing"), nullptr);

    EXPECT_EQ(v.intOr("i", 0), 42);
    EXPECT_EQ(v.intOr("missing", 7), 7);
    EXPECT_EQ(v.stringOr("s", ""), "a\nA");
    EXPECT_TRUE(v.boolOr("missing", true));
    EXPECT_DOUBLE_EQ(v.numberOr("missing", 2.5), 2.5);
}

TEST(JsonTest, RejectsMalformedDocuments)
{
    const char* bad[] = {
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "{\"a\" 1}",
        "\"unterminated",
        "\"bad escape \\q\"",
        "\"half surrogate \\ud800\"",
        "01",
        "1 trailing",
        "nul",
        "{\"dup\":1,\"dup\":2}",
    };
    for (const char* doc : bad) {
        SCOPED_TRACE(doc);
        try {
            JsonValue::parse(doc);
            FAIL() << "expected parse failure";
        } catch (const UserError& err) {
            EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
        }
    }

    // Depth bound: 70 nested arrays exceed the limit.
    std::string deep(70, '[');
    deep += std::string(70, ']');
    EXPECT_THROW(JsonValue::parse(deep), UserError);

    // Wrong-kind access is a typed error too.
    const JsonValue num = JsonValue::parse("3.5");
    EXPECT_THROW(num.asString(), UserError);
    EXPECT_THROW(num.asInt(), UserError); // not an exact integer
}

TEST(JsonTest, NumberRenderingRoundTrips)
{
    EXPECT_EQ(jsonNumber(3.0), "3");
    EXPECT_EQ(jsonNumber(-17.0), "-17");
    const std::string half = jsonNumber(0.5);
    EXPECT_DOUBLE_EQ(JsonValue::parse(half).asNumber(), 0.5);
    const std::string pi = jsonNumber(3.141592653589793);
    EXPECT_DOUBLE_EQ(JsonValue::parse(pi).asNumber(), 3.141592653589793);
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

TEST(WireTest, DecodesRunRequests)
{
    const WireRequest req = parseRequest(
        R"({"id":"j1","qasm":"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n)"
        R"(h q[0];\nmeasure q[0] -> c[0];\n",)"
        R"("shots":64,"seed":9,"deadline_ms":12.5,"priority":2,)"
        R"("threads":2,"cache":false,"assert_clbits":[[0]],)"
        R"("noise":{"kind":"depolarizing","p1":0.001,"p2":0.01}})");
    EXPECT_EQ(int(req.op), int(RequestOp::kRun));
    EXPECT_EQ(req.id, "j1");
    EXPECT_EQ(req.spec.tag, "j1");
    EXPECT_EQ(req.spec.circuit.numQubits(), 2);
    EXPECT_EQ(req.spec.shots, 64);
    EXPECT_EQ(req.spec.seed, 9u);
    EXPECT_DOUBLE_EQ(req.spec.deadline_ms, 12.5);
    EXPECT_EQ(req.spec.priority, 2);
    EXPECT_EQ(req.spec.num_threads, 2);
    EXPECT_FALSE(req.spec.use_cache);
    ASSERT_EQ(req.spec.assert_clbits.size(), 1u);
    EXPECT_EQ(req.spec.assert_clbits[0], std::vector<int>{0});
    EXPECT_TRUE(req.spec.noise.enabled());

    const WireRequest metrics = parseRequest(R"({"op":"metrics"})");
    EXPECT_EQ(int(metrics.op), int(RequestOp::kMetrics));
    const WireRequest shutdown =
        parseRequest(R"({"op":"shutdown","id":7})");
    EXPECT_EQ(int(shutdown.op), int(RequestOp::kShutdown));
    EXPECT_EQ(shutdown.id, "7"); // numeric ids are stringified
}

TEST(WireTest, RejectsBadRequests)
{
    // Each document, and a fragment its message must carry ("" = any).
    const std::pair<const char*, const char*> bad[] = {
        {R"({"op":"frobnicate"})", ""},
        {R"({"id":"x"})", ""}, // run without qasm
        {R"({"qasm":"OPENQASM 2.0; qreg q[1];","shots":0})", ""},
        {R"({"qasm":"OPENQASM 2.0; qreg q[1];","assert_clbits":3})", ""},
        {R"({"qasm":"OPENQASM 2.0; qreg q[1];","noise":"saturn"})", ""},
        {R"({"qasm":12})", ""},
        // Integers past the int range are refused, not wrapped.
        {R"({"qasm":"OPENQASM 2.0; qreg q[1]; creg c[1];","shots":8,)"
         R"("mps_chi":4294967301})",
         "mps_chi"},
        {R"({"qasm":"OPENQASM 2.0; qreg q[1]; creg c[1];","shots":8,)"
         R"("assert_clbits":[[4294967296]]})",
         "assert_clbits"},
        {R"({"qasm":"OPENQASM 2.0; qreg q[1]; creg c[1];",)"
         R"("shots":4294967304})",
         "shots"},
        {R"({"qasm":"OPENQASM 2.0; qreg q[1];","auto_assert":true,)"
         R"("assert_lowering":"pauli_sample"})",
         "(expected auto|swap|or|ndd|pauli)"},
    };
    for (const auto& [doc, needle] : bad) {
        SCOPED_TRACE(doc);
        try {
            parseRequest(doc);
            FAIL() << "expected a bad-request rejection";
        } catch (const UserError& err) {
            EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
            EXPECT_NE(std::string(err.what()).find(needle),
                      std::string::npos)
                << err.what();
        }
    }

    // Bad circuit text keeps its own classification.
    try {
        parseRequest(R"({"qasm":"qreg q[1]; frobnicate q[0];"})");
        FAIL() << "expected a QASM syntax rejection";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kQasmSyntax);
    }
}

TEST(WireTest, CapsThreadsAtTheCoreCount)
{
    // Parsed only: a job asking for a million threads is never run.
    const WireRequest many = parseRequest(
        R"({"qasm":"OPENQASM 2.0; qreg q[1];","threads":1000000})");
    EXPECT_EQ(many.spec.num_threads, kernelThreads());
    const WireRequest two = parseRequest(
        R"({"qasm":"OPENQASM 2.0; qreg q[1];","threads":2})");
    EXPECT_EQ(two.spec.num_threads, std::min(2, kernelThreads()));
}

TEST(WireTest, RejectsUnknownFieldsByName)
{
    const std::pair<const char*, const char*> cases[] = {
        {R"({"qasm":"OPENQASM 2.0; qreg q[1];","mps_trunc_tol":1e-3})",
         "mps_trunc_tol"},
        {R"({"op":"explain","qasm":"OPENQASM 2.0; qreg q[1];","shot":5})",
         "shot"},
        {R"({"qasm":"OPENQASM 2.0; qreg q[1];",)"
         R"("noise":{"kind":"depolarizing","p1":0.1,"p3":0.2}})",
         "p3"},
        {R"({"qasm":"OPENQASM 2.0; qreg q[1];",)"
         R"("noise":{"kind":"melbourne","p1":0.1}})",
         "p1"},
        {R"({"op":"ping","id":"p","queue":1})", "queue"},
    };
    for (const auto& [doc, field] : cases) {
        SCOPED_TRACE(doc);
        try {
            parseRequest(doc);
            FAIL() << "expected an unknown-field rejection";
        } catch (const UserError& err) {
            EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
            EXPECT_NE(std::string(err.what()).find(std::string("'") +
                                                   field + "'"),
                      std::string::npos)
                << err.what();
        }
    }

    // The spelling the parser reads is accepted.
    const WireRequest ok = parseRequest(
        R"({"qasm":"OPENQASM 2.0; qreg q[1];","mps_tol":1e-3})");
    EXPECT_DOUBLE_EQ(ok.spec.mps_trunc_tol, 1e-3);
}

TEST(WireTest, EncodesResultsAsParseableJson)
{
    JobResult result;
    result.counts.shots = 10;
    result.counts.map["00"] = 4;
    result.counts.map["10"] = 6;
    result.program_counts.shots = 4;
    result.program_counts.map["0"] = 4;
    result.slot_error_rate = {0.6};
    result.pass_rate = 0.4;
    result.exec_ms = 1.5;

    const JsonValue v = JsonValue::parse(encodeResult("job-9", result));
    EXPECT_EQ(v.find("id")->asString(), "job-9");
    EXPECT_EQ(v.find("status")->asString(), "ok");
    EXPECT_FALSE(v.find("cache_hit")->asBool());
    EXPECT_EQ(v.find("shots")->asInt(), 10);
    EXPECT_FALSE(v.find("truncated")->asBool());
    EXPECT_DOUBLE_EQ(v.find("pass_rate")->asNumber(), 0.4);
    EXPECT_EQ(v.find("counts")->find("10")->asInt(), 6);
    EXPECT_EQ(v.find("program_counts")->find("0")->asInt(), 4);
    EXPECT_EQ(v.find("accepted_shots")->asInt(), 4);

    JobResult failure;
    failure.status = JobStatus::kFailed;
    failure.error_code = ErrorCode::kPolicyUnsupported;
    failure.error_message = "nope";
    const JsonValue e = JsonValue::parse(encodeResult("j", failure));
    EXPECT_EQ(e.find("status")->asString(), "error");
    EXPECT_EQ(e.find("code")->asString(), "policy_unsupported");
    EXPECT_EQ(e.find("message")->asString(), "nope");

    const JsonValue qf = JsonValue::parse(
        encodeError("x", ErrorCode::kQueueFull, "full"));
    EXPECT_EQ(qf.find("code")->asString(), "queue_full");
}

TEST(WireTest, ReplayLinesAreResultLinesMinusTiming)
{
    const std::string ghz =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n"
        "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nmeasure q[0] -> c[0];\n"
        "measure q[1] -> c[1];\nmeasure q[2] -> c[2];\n";
    const std::string common =
        "\"shots\":128,\"seed\":5,\"qasm\":\"" + jsonEscape(ghz) + "\"}";
    const std::pair<std::string, const char*> jobs[] = {
        {"{\"id\":\"aa\",\"auto_assert\":true," + common, "auto_assert"},
        {"{\"id\":\"mps\",\"backend\":\"mps\"," + common, "mps"},
    };
    for (const auto& [text, block] : jobs) {
        const WireRequest request = parseRequest(text);
        const JobResult result = executeJob(request.spec);
        ASSERT_EQ(int(result.status), int(JobStatus::kOk))
            << result.error_message;
        std::map<std::string, JsonValue> full =
            JsonValue::parse(encodeResult(request.id, result)).asObject();
        EXPECT_EQ(full.count(block), 1u) << request.id;
        for (const char* timing : {"cache_hit", "queue_ms", "exec_ms"}) {
            EXPECT_EQ(full.erase(timing), 1u) << timing;
        }
        const std::map<std::string, JsonValue> replay =
            JsonValue::parse(encodeReplay(request.id, result)).asObject();
        ASSERT_EQ(replay.size(), full.size()) << request.id;
        for (const auto& [key, value] : full) {
            const auto it = replay.find(key);
            ASSERT_NE(it, replay.end()) << request.id << ": " << key;
            EXPECT_EQ(it->second.dump(), value.dump())
                << request.id << ": " << key;
        }
    }
}

TEST(WireTest, ExplainRejectsTheSlotsARunRejects)
{
    // explain plans what a run would, so it checks the plain path's
    // assert_clbits slots the same way and answers with the same error.
    SchedulerOptions options;
    options.workers = 1;
    Scheduler scheduler(options);
    LineService service(scheduler, nullptr, LineService::Options{});
    const std::string circuit =
        R"("qasm":"OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nh q[0];\n)"
        R"(measure q[0] -> c[0];\n","assert_clbits":)";
    for (const std::string slots : {"[[9]]", "[[]]"}) {
        SCOPED_TRACE(slots);
        const std::string fields = circuit + slots + "}";
        std::string message;
        try {
            executeJob(parseRequest("{" + fields).spec);
            FAIL() << "the run must reject the slots";
        } catch (const UserError& err) {
            EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
            message = err.what();
        }
        std::vector<std::string> lines;
        service.handleLine(R"({"op":"explain","id":"e",)" + fields,
                           [&lines](const std::string& line) {
                               lines.push_back(line);
                           });
        ASSERT_EQ(lines.size(), 1u);
        const JsonValue reply = JsonValue::parse(lines[0]);
        EXPECT_EQ(reply.find("status")->asString(), "error");
        EXPECT_EQ(reply.find("code")->asString(), "bad_request");
        EXPECT_EQ(reply.find("message")->asString(), message);
    }
}

/**
 * Explain and run `qasm` (an OPENQASM 2.0 body after the header) on a
 * circuit no backend can hold: explain must answer `capable:false` and
 * the run the typed kBadRequest carrying the same reason, before any
 * backend allocates its state.
 */
void
expectTypedIncapable(const std::string& body)
{
    SchedulerOptions options;
    options.workers = 1;
    Scheduler scheduler(options);
    LineService service(scheduler, nullptr, LineService::Options{});
    const std::string fields =
        R"("qasm":")" + jsonEscape("OPENQASM 2.0;\n" + body) +
        R"(","shots":16})";

    std::vector<std::string> lines;
    service.handleLine(R"({"op":"explain","id":"e",)" + fields,
                       [&lines](const std::string& line) {
                           lines.push_back(line);
                       });
    ASSERT_EQ(lines.size(), 1u);
    const JsonValue reply = JsonValue::parse(lines[0]);
    EXPECT_EQ(reply.find("status")->asString(), "ok") << lines[0];
    EXPECT_FALSE(reply.find("capable")->asBool()) << lines[0];

    try {
        executeJob(parseRequest("{" + fields).spec);
        FAIL() << "the run must refuse the job";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest) << err.what();
        EXPECT_NE(std::string(err.what()).find(
                      reply.find("reason")->asString()),
                  std::string::npos)
            << err.what();
    }
}

TEST(WireTest, WideNonCliffordCircuitIsATypedIncapableJob)
{
    // 26 qubits: past the statevector's width, non-Clifford for the
    // tableau, and too entangled across the middle cut for MPS.
    constexpr int n = 26;
    std::string body = "qreg q[26];\ncreg c[26];\n";
    for (int q = 0; q < n; ++q) {
        body += "t q[" + std::to_string(q) + "];\n";
    }
    for (int q = 0; q < n / 2; ++q) {
        body += "cx q[" + std::to_string(q) + "],q[" +
                std::to_string(n - 1 - q) + "];\n";
    }
    for (int q = 0; q < n; ++q) {
        body += "measure q[" + std::to_string(q) + "] -> c[" +
                std::to_string(q) + "];\n";
    }
    expectTypedIncapable(body);
}

TEST(WireTest, OversizedCliffordCircuitIsATypedIncapableJob)
{
    // A 5000-qubit GHZ fanned out from qubit 0: Clifford, but past the
    // tableau's width, and every cut of the line is crossed too often
    // for MPS.
    constexpr int n = 5000;
    std::string body = "qreg q[5000];\ncreg c[5000];\nh q[0];\n";
    for (int q = 1; q < n; ++q) {
        body += "cx q[0],q[" + std::to_string(q) + "];\n";
    }
    body += "measure q[0] -> c[0];\n";
    expectTypedIncapable(body);
}

TEST(WireTest, EncodesMetricsSnapshots)
{
    SchedulerOptions options;
    options.workers = 2;
    Scheduler scheduler(options);
    scheduler.submit(coinSpec(5)).get();
    scheduler.submit(coinSpec(5)).get(); // cache hit

    const JsonValue v =
        JsonValue::parse(encodeMetrics(scheduler.metrics()));
    const JsonValue* m = v.find("metrics");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->find("accepted")->asInt(), 2);
    EXPECT_EQ(m->find("completed")->asInt(), 2);
    EXPECT_GE(m->find("cache_hits")->asInt(), 1);
    const JsonValue* hist = m->find("execute_ms");
    ASSERT_NE(hist, nullptr);
    EXPECT_GE(hist->find("total")->asInt(), 1);
    EXPECT_FALSE(scheduler.metrics().str().empty());
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

TEST(MetricsTest, HistogramBucketsAndMoments)
{
    LatencyHistogram hist;
    hist.record(0.05);    // below the first bound
    hist.record(0.3);     // mid bucket
    hist.record(1e6);     // beyond the last bound
    const LatencyHistogramSnapshot snap = hist.snapshot();
    ASSERT_EQ(snap.counts.size(), snap.bounds.size() + 1);
    EXPECT_EQ(snap.counts.front(), 1u);
    EXPECT_EQ(snap.counts.back(), 1u);
    EXPECT_EQ(snap.total, 3u);
    EXPECT_DOUBLE_EQ(snap.max_ms, 1e6);
    EXPECT_NEAR(snap.meanMs(), (0.05 + 0.3 + 1e6) / 3.0, 1e-9);

    uint64_t across = 0;
    for (uint64_t c : snap.counts) across += c;
    EXPECT_EQ(across, snap.total);

    EXPECT_EQ(LatencyHistogramSnapshot{}.meanMs(), 0.0);
}

// ---------------------------------------------------------------------
// Wire extensions for the fleet: retry_after_ms hints, ping, peek
// ---------------------------------------------------------------------

TEST(WireTest, ErrorResponsesCarryRetryAfterHints)
{
    const std::string hinted =
        encodeError("j1", ErrorCode::kQueueFull, "queue is full", 12.5);
    const JsonValue parsed = JsonValue::parse(hinted);
    EXPECT_EQ(parsed.stringOr("code", ""), "queue_full");
    EXPECT_DOUBLE_EQ(parsed.numberOr("retry_after_ms", 0.0), 12.5);

    // No estimate (0) => the field is omitted, not emitted as zero.
    const std::string bare =
        encodeError("j2", ErrorCode::kServiceStopped, "stopping");
    EXPECT_EQ(bare.find("retry_after_ms"), std::string::npos);
}

TEST(WireTest, SchedulerHintsMatchQueueState)
{
    SchedulerOptions options;
    options.workers = 2;
    Scheduler scheduler(options);
    // Idle service, no completions: a token hint, never zero, so
    // rejected callers still back off instead of spinning.
    const double hint = scheduler.retryAfterMsHint(ErrorCode::kQueueFull);
    EXPECT_GE(hint, 1.0);
    EXPECT_LE(hint, 10000.0);
    // Hints exist only for saturation rejections.
    EXPECT_EQ(scheduler.retryAfterMsHint(ErrorCode::kServiceStopped), 0.0);
    EXPECT_EQ(scheduler.retryAfterMsHint(ErrorCode::kBadRequest), 0.0);
    scheduler.stop();
}

TEST(WireTest, PingIsDecodedAndEncoded)
{
    const WireRequest request =
        parseRequest(R"({"op":"ping","id":"!p0.1"})");
    EXPECT_EQ(int(request.op), int(RequestOp::kPing));
    EXPECT_EQ(request.id, "!p0.1");

    const std::string pong = encodePing("!p0.1", 3, 2);
    const JsonValue parsed = JsonValue::parse(pong);
    EXPECT_EQ(parsed.stringOr("id", ""), "!p0.1");
    EXPECT_TRUE(parsed.boolOr("pong", false));
    EXPECT_EQ(parsed.intOr("queue_depth", -1), 3);
    EXPECT_EQ(parsed.intOr("in_flight", -1), 2);
}

TEST(WireTest, PeekResponseIdFastPath)
{
    std::string id;
    ASSERT_TRUE(peekResponseId(R"({"id":"!f7.0","status":"ok"})", &id));
    EXPECT_EQ(id, "!f7.0");
    ASSERT_TRUE(peekResponseId(R"({"id":"","status":"ok"})", &id));
    EXPECT_EQ(id, "");
    // Escaped ids and non-response lines fall back to a full parse.
    EXPECT_FALSE(peekResponseId(R"({"id":"a\"b","status":"ok"})", &id));
    EXPECT_FALSE(peekResponseId(R"({"status":"ok","id":"x"})", &id));
    EXPECT_FALSE(peekResponseId("", &id));
}

// ---------------------------------------------------------------------
// Replay library: determinism and clean cancellation
// ---------------------------------------------------------------------

namespace
{

/** Write a small valid journal and return its path. */
std::string
writeReplayJournal(const std::string& name)
{
    const std::string path = testing::TempDir() + name;
    // TempDir persists across test runs and Journal opens O_APPEND; a
    // stale file from a previous run would triple the entry count.
    std::remove(path.c_str());
    resilience::Journal journal(path);
    const std::string qasm =
        "OPENQASM 2.0;\\nqreg q[2];\\ncreg c[2];\\nh q[0];\\ncx "
        "q[0],q[1];\\nmeasure q[0] -> c[0];\\nmeasure q[1] -> c[1];\\n";
    for (uint64_t seq = 0; seq < 3; ++seq) {
        journal.appendAccept(
            seq, "{\"id\":\"r" + std::to_string(seq) + "\",\"qasm\":\"" +
                     qasm + "\",\"shots\":64,\"seed\":" +
                     std::to_string(40 + seq) + "}");
    }
    journal.sync();
    return path;
}

} // namespace

TEST(ReplayTest, ReplaysDeterministicallyAndVerifiesHashes)
{
    const std::string path = writeReplayJournal("replay_ok.ndjson");
    std::ostringstream out1, out2, diag;
    const ReplayReport first = replayJournal(path, out1, diag);
    EXPECT_EQ(int(first.status), int(ReplayStatus::kOk));
    EXPECT_EQ(first.total, 3u);
    EXPECT_EQ(first.executed, 3u);
    EXPECT_EQ(first.mismatches, 0u);
    const ReplayReport second = replayJournal(path, out2, diag);
    EXPECT_EQ(out1.str(), out2.str()); // byte-identical replays
    EXPECT_EQ(int(second.status), int(ReplayStatus::kOk));
}

TEST(ReplayTest, DrainSignalCancelsCleanlyBetweenJobs)
{
    // The drain-mid-replay race, without signals: the flag is already
    // set when replay starts, so it must abort before executing a
    // single job — clean output (nothing emitted), journal untouched,
    // typed kInterrupted status (qassertd maps it to exit code 3).
    const std::string path = writeReplayJournal("replay_cancel.ndjson");
    std::atomic<int> cancel{SIGTERM};
    ReplayOptions options;
    options.cancel = &cancel;
    std::ostringstream out, diag;
    const ReplayReport report = replayJournal(path, out, diag, options);
    EXPECT_EQ(int(report.status), int(ReplayStatus::kInterrupted));
    EXPECT_EQ(report.executed, 0u);
    EXPECT_TRUE(out.str().empty());

    // The journal file is intact: a second, uncancelled replay still
    // executes everything.
    cancel = 0;
    const ReplayReport resumed = replayJournal(path, out, diag, options);
    EXPECT_EQ(int(resumed.status), int(ReplayStatus::kOk));
    EXPECT_EQ(resumed.executed, 3u);
}

TEST(ReplayTest, MissingJournalIsATypedError)
{
    std::ostringstream out, diag;
    EXPECT_THROW(replayJournal("/nonexistent/journal.ndjson", out, diag),
                 UserError);
}

TEST(JsonTest, SetAndDumpRoundTrip)
{
    JsonValue value = JsonValue::parse(
        R"({"id":"old","shots":64,"nested":{"a":[1,2,true,null]}})");
    value.set("id", JsonValue::makeString("!f0.0"));
    value.set("priority", JsonValue::makeNumber(2));
    const JsonValue round = JsonValue::parse(value.dump());
    EXPECT_EQ(round.stringOr("id", ""), "!f0.0");
    EXPECT_EQ(round.intOr("shots", 0), 64);
    EXPECT_EQ(round.intOr("priority", 0), 2);
    ASSERT_NE(round.find("nested"), nullptr);
    EXPECT_EQ(round.find("nested")->find("a")->asArray().size(), 4u);
    // dump is stable: dump(parse(dump(x))) == dump(x).
    EXPECT_EQ(JsonValue::parse(value.dump()).dump(), value.dump());

    JsonValue scalar = JsonValue::makeNumber(1);
    EXPECT_THROW(scalar.set("k", JsonValue::makeNumber(2)), UserError);
}

// ---------------------------------------------------------------------
// Serve loop over a socket
// ---------------------------------------------------------------------

TEST(ServeLoopTest, SocketServerAnswersPingOverflowJobAndShutdown)
{
    SchedulerOptions options;
    options.workers = 1;
    Scheduler scheduler(options);
    LineService service(scheduler, nullptr, LineService::Options{});
    SocketServer::Options sopts;
    sopts.max_line = 256;
    SocketServer server(service, sopts);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    auto ran = std::async(std::launch::async,
                          [&server] { server.run(nullptr); });

    const int fd = net::tcpConnect("127.0.0.1", server.port(), 5000.0);
    EXPECT_GE(fd, 0);
    const auto send = [fd](const std::string& line) {
        const std::string buf = line + "\n";
        EXPECT_TRUE(net::writeAllBounded(fd, buf.data(), buf.size(), 5000.0));
    };
    send(R"({"op":"ping","id":"p"})");
    send(std::string(1000, 'x')); // over max_line: rejected unread
    send(R"({"id":"j","shots":64,"seed":3,"qasm":"OPENQASM 2.0;\n)"
         R"(qreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n"})");

    net::LineReader reader(fd, size_t(1) << 20, 5000.0);
    std::vector<std::string> lines;
    std::string line;
    while (lines.size() < 3 &&
           reader.next(&line) == net::LineReader::Status::kOk) {
        lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 3u);
    const JsonValue pong = JsonValue::parse(lines[0]);
    EXPECT_EQ(pong.find("id")->asString(), "p");
    EXPECT_TRUE(pong.find("pong")->asBool());
    EXPECT_EQ(lines[1], encodeOverflow(sopts.max_line));
    const JsonValue job = JsonValue::parse(lines[2]);
    EXPECT_EQ(job.find("id")->asString(), "j");
    EXPECT_EQ(job.find("status")->asString(), "ok");
    EXPECT_EQ(job.find("shots")->asInt(), 64);

    // A shutdown op on the connection ends the whole server.
    send(R"({"op":"shutdown"})");
    EXPECT_EQ(ran.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "shutdown op did not end run()";
    server.stop(); // no-op once run() has returned
    ran.wait();
    EXPECT_EQ(server.accepted(), 1u);
    net::closeQuiet(fd);
}

TEST(ServeLoopTest, StopLetsInFlightJobsAnswerBeforeEof)
{
    // A drain must not cut off the reply to a job still running: stop()
    // ends run() while the exec hook holds the job, and the client
    // still reads the ok reply, then EOF, once the scheduler drains.
    SchedulerOptions options;
    options.workers = 1;
    std::promise<void> started;
    std::future<void> running = started.get_future();
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    options.exec_hook = [&started, released](uint64_t) {
        started.set_value();
        released.wait();
    };
    Scheduler scheduler(options);
    LineService service(scheduler, nullptr, LineService::Options{});
    SocketServer server(service, SocketServer::Options{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    auto ran = std::async(std::launch::async,
                          [&server] { server.run(nullptr); });

    const int fd = net::tcpConnect("127.0.0.1", server.port(), 5000.0);
    ASSERT_GE(fd, 0);
    const std::string job =
        R"({"id":"held","shots":32,"seed":4,"qasm":"OPENQASM 2.0;\n)"
        R"(qreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n"})"
        "\n";
    ASSERT_TRUE(net::writeAllBounded(fd, job.data(), job.size(), 5000.0));
    running.wait();

    // A second client, once served (its ping answered), dribbles one
    // endless line: its reader must still stop on the tick instead of
    // waiting for a newline.
    const int slow = net::tcpConnect("127.0.0.1", server.port(), 5000.0);
    EXPECT_GE(slow, 0);
    const std::string ping = "{\"op\":\"ping\",\"id\":\"p\"}\n";
    EXPECT_TRUE(
        net::writeAllBounded(slow, ping.data(), ping.size(), 5000.0));
    net::LineReader slow_reader(slow, size_t(1) << 20, 5000.0);
    std::string line;
    EXPECT_EQ(slow_reader.next(&line), net::LineReader::Status::kOk);
    std::atomic<bool> dribbling{true};
    std::thread dribbler([slow, &dribbling] {
        while (dribbling.load() &&
               net::writeAllBounded(slow, "x", 1, 1000.0)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    server.stop();
    EXPECT_EQ(ran.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "run() did not return within 5 s of stop()";
    dribbling.store(false);
    dribbler.join();

    release.set_value();
    EXPECT_TRUE(scheduler.drainFor(5000.0));

    net::LineReader reader(fd, size_t(1) << 20, 5000.0);
    ASSERT_EQ(reader.next(&line), net::LineReader::Status::kOk);
    const JsonValue reply = JsonValue::parse(line);
    EXPECT_EQ(reply.find("id")->asString(), "held");
    EXPECT_EQ(reply.find("status")->asString(), "ok");
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kEof);
    EXPECT_EQ(server.accepted(), 2u);
    net::closeQuiet(slow);
    net::closeQuiet(fd);
}

} // namespace
} // namespace serve
} // namespace qa
