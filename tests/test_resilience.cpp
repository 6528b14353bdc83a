/**
 * @file
 * Tests for the resilience layer (src/resilience) and its integration
 * into the assertion service: retry policy determinism, the circuit
 * breaker state machine (driven by a ManualClock, no real sleeps), the
 * crash-safe journal and its torn-tail scanner, the deterministic chaos
 * plans, worker supervision (heartbeats, watchdog, respawn), and the
 * malformed-input corpus for the wire protocol.
 *
 * The chaos suite runs under TSAN and ASan in tier1: the invariants it
 * enforces are "the service never crashes, never loses an acknowledged
 * job, and keeps results bit-identical through every recovery path".
 */
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "resilience/breaker.hpp"
#include "resilience/chaos.hpp"
#include "resilience/journal.hpp"
#include "resilience/netfault.hpp"
#include "resilience/retry.hpp"
#include "resilience/supervisor.hpp"
#include "serve/job.hpp"
#include "serve/json.hpp"
#include "serve/scheduler.hpp"
#include "serve/wire.hpp"

namespace qa
{
namespace resilience
{
namespace
{

using serve::executeJob;
using serve::JobResult;
using serve::JobSpec;
using serve::JobStatus;
using serve::Scheduler;
using serve::SchedulerOptions;

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

/** Bit-exact equality of two job results (modulo timing fields). */
void
expectResultsIdentical(const JobResult& a, const JobResult& b)
{
    EXPECT_EQ(int(a.status), int(b.status));
    EXPECT_EQ(a.counts.map, b.counts.map);
    EXPECT_EQ(a.counts.shots, b.counts.shots);
    EXPECT_EQ(a.program_counts.map, b.program_counts.map);
    EXPECT_EQ(a.program_counts.shots, b.program_counts.shots);
    EXPECT_EQ(a.slot_error_rate, b.slot_error_rate);
    EXPECT_EQ(a.pass_rate, b.pass_rate);
    EXPECT_EQ(a.truncated, b.truncated);
}

std::string
tempPath(const std::string& name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

// ---------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------

TEST(RetryTest, TransientClassification)
{
    EXPECT_TRUE(isTransientError(ErrorCode::kGeneric));
    EXPECT_TRUE(isTransientError(ErrorCode::kWorkerLost));
    EXPECT_TRUE(isTransientError(ErrorCode::kWorkerFailure));

    EXPECT_FALSE(isTransientError(ErrorCode::kBadRequest));
    EXPECT_FALSE(isTransientError(ErrorCode::kQueueFull));
    EXPECT_FALSE(isTransientError(ErrorCode::kShedding));
    EXPECT_FALSE(isTransientError(ErrorCode::kPolicyUnsupported));
    EXPECT_FALSE(isTransientError(ErrorCode::kQasmSyntax));
    EXPECT_FALSE(isTransientError(ErrorCode::kResourceExhausted));
}

TEST(RetryTest, BackoffIsDeterministicJitteredExponential)
{
    RetryOptions options;
    options.base_backoff_ms = 2.0;
    options.max_backoff_ms = 50.0;

    // Counter-based: same (seed, seq, retry) always yields the same
    // delay; different jobs decorrelate.
    EXPECT_DOUBLE_EQ(retryBackoffMs(options, 7, 1),
                     retryBackoffMs(options, 7, 1));
    EXPECT_NE(retryBackoffMs(options, 7, 1), retryBackoffMs(options, 8, 1));

    for (uint64_t seq = 0; seq < 32; ++seq) {
        double previous_cap = 0.0;
        for (int retry = 1; retry <= 8; ++retry) {
            const double backoff = retryBackoffMs(options, seq, retry);
            const double cap =
                std::min(options.base_backoff_ms * double(1 << (retry - 1)),
                         options.max_backoff_ms);
            // Jitter keeps each delay in [cap/2, cap).
            EXPECT_GE(backoff, cap * 0.5);
            EXPECT_LT(backoff, cap);
            EXPECT_GE(cap, previous_cap); // monotone growth until the cap
            previous_cap = cap;
        }
    }
}

TEST(RetryTest, DecideRetryRespectsAttemptAndDeadlineBudgets)
{
    RetryOptions options;
    options.max_attempts = 3;
    options.base_backoff_ms = 4.0;

    // Transient + attempts left + no deadline: retry.
    EXPECT_TRUE(
        decideRetry(options, 0, 0, ErrorCode::kGeneric, 0.0, 0.0).retry);
    EXPECT_TRUE(
        decideRetry(options, 0, 1, ErrorCode::kWorkerLost, 0.0, 0.0).retry);

    // Attempt budget exhausted (failed_attempt is 0-based).
    EXPECT_FALSE(
        decideRetry(options, 0, 2, ErrorCode::kGeneric, 0.0, 0.0).retry);

    // Permanent errors never retry.
    EXPECT_FALSE(
        decideRetry(options, 0, 0, ErrorCode::kBadRequest, 0.0, 0.0).retry);

    // Deadline budget: the backoff must fit in what remains.
    const double backoff = retryBackoffMs(options, 0, 1);
    EXPECT_TRUE(decideRetry(options, 0, 0, ErrorCode::kGeneric,
                            backoff + 1.0, 0.0)
                    .retry);
    EXPECT_FALSE(decideRetry(options, 0, 0, ErrorCode::kGeneric,
                             backoff + 1.0, 2.0)
                     .retry);

    const RetryDecision decision =
        decideRetry(options, 0, 0, ErrorCode::kGeneric, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(decision.backoff_ms, backoff);
}

// ---------------------------------------------------------------------
// Circuit breaker (ManualClock; no real sleeps)
// ---------------------------------------------------------------------

BreakerOptions
smallBreaker()
{
    BreakerOptions options;
    options.enabled = true;
    options.window = 8;
    options.min_samples = 4;
    options.failure_threshold = 0.5;
    options.open_cooldown_ms = 100.0;
    options.half_open_probes = 1;
    return options;
}

TEST(BreakerTest, DisabledBreakerAdmitsEverything)
{
    CircuitBreaker breaker; // default: disabled
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(breaker.tryAdmit());
        breaker.recordFailure();
    }
    EXPECT_EQ(breaker.stats().shed, 0u);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(BreakerTest, TripsOnFailureRateOnlyAfterMinSamples)
{
    ManualClock clock;
    CircuitBreaker breaker(smallBreaker(), &clock);

    // Three straight failures: 100% failure rate but under min_samples.
    for (int i = 0; i < 3; ++i) breaker.recordFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

    breaker.recordFailure(); // 4th sample crosses min_samples
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
    EXPECT_EQ(breaker.stats().opens, 1u);
}

TEST(BreakerTest, OpenShedsUntilCooldownThenProbes)
{
    ManualClock clock;
    CircuitBreaker breaker(smallBreaker(), &clock);
    for (int i = 0; i < 4; ++i) breaker.recordFailure();
    ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

    EXPECT_FALSE(breaker.tryAdmit());
    EXPECT_FALSE(breaker.tryAdmit());
    EXPECT_EQ(breaker.stats().shed, 2u);

    clock.advanceMs(101.0);
    EXPECT_TRUE(breaker.tryAdmit()); // the half-open probe
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
    EXPECT_FALSE(breaker.tryAdmit()); // only one probe allowed
}

TEST(BreakerTest, ProbeSuccessClosesAndResetsWindow)
{
    ManualClock clock;
    CircuitBreaker breaker(smallBreaker(), &clock);
    for (int i = 0; i < 4; ++i) breaker.recordFailure();
    clock.advanceMs(101.0);
    ASSERT_TRUE(breaker.tryAdmit());

    breaker.recordSuccess();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
    EXPECT_EQ(breaker.stats().window_samples, 0u); // bad window forgotten

    // A single new failure must not re-trip off stale history.
    breaker.recordFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(BreakerTest, ProbeFailureReopensAndRestartsCooldown)
{
    ManualClock clock;
    CircuitBreaker breaker(smallBreaker(), &clock);
    for (int i = 0; i < 4; ++i) breaker.recordFailure();
    clock.advanceMs(101.0);
    ASSERT_TRUE(breaker.tryAdmit());

    breaker.recordFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
    EXPECT_EQ(breaker.stats().opens, 2u);
    EXPECT_FALSE(breaker.tryAdmit()); // cooldown restarted
    clock.advanceMs(101.0);
    EXPECT_TRUE(breaker.tryAdmit());
}

TEST(BreakerTest, QueueLatencyTripsTheBreaker)
{
    ManualClock clock;
    BreakerOptions options = smallBreaker();
    options.queue_latency_threshold_ms = 50.0;
    CircuitBreaker breaker(options, &clock);

    breaker.observeQueueWait(10.0);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
    breaker.observeQueueWait(51.0);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

TEST(JournalTest, RoundTripsAcceptsAndCompletions)
{
    const std::string path = tempPath("qa_journal_roundtrip.ndjson");
    {
        Journal journal(path);
        journal.appendAccept(0, "{\"op\":\"run\",\"id\":\"a\"}");
        journal.appendAccept(1, "{\"op\":\"run\",\"id\":\"b\"}");
        journal.appendComplete(0, "ok", "00112233445566778899aabbccddeeff");
        EXPECT_EQ(journal.recordsWritten(), 3u);
    }
    const JournalScan scan = scanJournal(path);
    EXPECT_FALSE(scan.torn_tail);
    ASSERT_EQ(scan.accepted.size(), 2u);
    EXPECT_EQ(scan.accepted[0].seq, 0u);
    EXPECT_EQ(scan.accepted[0].request, "{\"op\":\"run\",\"id\":\"a\"}");
    EXPECT_EQ(scan.accepted[1].seq, 1u);
    ASSERT_EQ(scan.completed.size(), 1u);
    EXPECT_EQ(scan.completed.at(0).status, "ok");
    EXPECT_EQ(scan.completed.at(0).hash,
              "00112233445566778899aabbccddeeff");

    // Pending = accepted minus completed: exactly what replay re-runs.
    const auto pending = scan.pending();
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].seq, 1u);
    std::remove(path.c_str());
}

TEST(JournalTest, TornTailIsDroppedNotFatal)
{
    const std::string path = tempPath("qa_journal_torn.ndjson");
    {
        Journal journal(path);
        journal.appendAccept(0, "{\"id\":\"a\"}");
        journal.appendAccept(1, "{\"id\":\"b\"}");
    }
    // Crash mid-append: the final record loses its tail bytes.
    chopFileTail(path, 7);
    const JournalScan scan = scanJournal(path);
    EXPECT_TRUE(scan.torn_tail);
    ASSERT_EQ(scan.accepted.size(), 1u);
    EXPECT_EQ(scan.accepted[0].seq, 0u);
    std::remove(path.c_str());
}

TEST(JournalTest, DamageBeforeTheTailIsCorruption)
{
    const std::string path = tempPath("qa_journal_corrupt.ndjson");
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"e\":\"accept\",\"seq\":0,\"req\":{\"id\"\n" // damaged
            << "{\"e\":\"accept\",\"seq\":1,\"req\":{\"id\":\"b\"}}\n";
    }
    try {
        scanJournal(path);
        FAIL() << "corrupt journal must not scan";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kJournalCorrupt);
    }
    std::remove(path.c_str());
}

TEST(JournalTest, MissingFileIsATypedError)
{
    try {
        scanJournal(tempPath("qa_journal_missing.ndjson"));
        FAIL() << "missing journal must not scan";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
    }
}

TEST(JournalTest, ChoppingMoreThanTheFileEmptiesIt)
{
    const std::string path = tempPath("qa_journal_chop.ndjson");
    {
        Journal journal(path);
        journal.appendAccept(0, "{\"id\":\"a\"}");
    }
    chopFileTail(path, 1 << 20);
    const JournalScan scan = scanJournal(path);
    EXPECT_EQ(scan.accepted.size(), 0u);
    EXPECT_FALSE(scan.torn_tail);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Chaos plans
// ---------------------------------------------------------------------

TEST(ChaosPlanTest, PlansAreDeterministicAndSeedDependent)
{
    ChaosOptions options;
    options.seed = 42;
    options.p_stall = 0.2;
    options.p_throw = 0.3;
    const ChaosPlan plan(options);
    const ChaosPlan replayed(options); // identical options, fresh object

    ChaosOptions other = options;
    other.seed = 43;
    const ChaosPlan different(other);

    size_t diverged = 0;
    for (uint64_t seq = 0; seq < 200; ++seq) {
        EXPECT_EQ(int(plan.at(seq, 0).kind),
                  int(replayed.at(seq, 0).kind));
        if (plan.at(seq, 0).kind != different.at(seq, 0).kind) ++diverged;
    }
    EXPECT_GT(diverged, 0u);

    // The planned mix roughly matches the probabilities.
    const size_t faults = plan.plannedFaults(1000);
    EXPECT_GT(faults, 350u);
    EXPECT_LT(faults, 650u);
}

TEST(ChaosPlanTest, FirstAttemptOnlyLeavesRetriesClean)
{
    ChaosOptions options;
    options.p_throw = 1.0;
    const ChaosPlan plan(options);
    EXPECT_EQ(int(plan.at(5, 0).kind), int(ServiceFaultKind::kJobThrow));
    EXPECT_EQ(int(plan.at(5, 1).kind), int(ServiceFaultKind::kNone));

    ChaosOptions every = options;
    every.first_attempt_only = false;
    const ChaosPlan relentless(every);
    EXPECT_EQ(int(relentless.at(5, 1).kind),
              int(ServiceFaultKind::kJobThrow));
}

// ---------------------------------------------------------------------
// Supervision primitives
// ---------------------------------------------------------------------

TEST(SupervisorTest, HeartbeatStalenessTracksTheClock)
{
    ManualClock clock;
    Heartbeat heartbeat(&clock);
    EXPECT_FALSE(heartbeat.busy());
    EXPECT_DOUBLE_EQ(heartbeat.staleMs(), 0.0);

    heartbeat.beginWork(17);
    EXPECT_TRUE(heartbeat.busy());
    EXPECT_EQ(heartbeat.token(), 17u);
    clock.advanceMs(40.0);
    EXPECT_NEAR(heartbeat.staleMs(), 40.0, 1e-6);

    heartbeat.beat();
    EXPECT_NEAR(heartbeat.staleMs(), 0.0, 1e-6);

    clock.advanceMs(10.0);
    heartbeat.endWork();
    EXPECT_DOUBLE_EQ(heartbeat.staleMs(), 0.0); // idle is never stale
}

TEST(SupervisorTest, WatchdogScansAndStopsPromptly)
{
    std::atomic<int> scans{0};
    Watchdog watchdog;
    watchdog.start([&scans] { scans.fetch_add(1); }, 1.0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (scans.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(scans.load(), 0);
    watchdog.stop();
    watchdog.stop(); // idempotent
    const int after_stop = scans.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(scans.load(), after_stop);
}

// ---------------------------------------------------------------------
// Scheduler chaos: thrown jobs
// ---------------------------------------------------------------------

serve::ExecHook
hookFromPlan(const ChaosPlan& plan)
{
    return [plan](uint64_t seq, int attempt) {
        const ServiceFault fault = plan.at(seq, attempt);
        if (fault.kind == ServiceFaultKind::kJobThrow) {
            throw std::runtime_error("chaos: planned throw at seq " +
                                     std::to_string(seq));
        }
        if (fault.kind == ServiceFaultKind::kWorkerStall) {
            std::this_thread::sleep_for(std::chrono::duration<double,
                                                              std::milli>(
                fault.stall_ms));
        }
    };
}

TEST(SchedulerChaosTest, ThrownJobsRetryToBitIdenticalResults)
{
    constexpr int kJobs = 24;

    ChaosOptions chaos;
    chaos.seed = 11;
    chaos.p_throw = 0.4; // ~40% of first attempts die and retry clean
    const ChaosPlan plan(chaos);
    ASSERT_GT(plan.plannedFaults(kJobs), 0u);

    SchedulerOptions options;
    options.workers = 4;
    options.cache_capacity = 0; // force real re-execution on retry
    options.retry.base_backoff_ms = 0.1;
    options.exec_hook = hookFromPlan(plan);
    Scheduler scheduler(options);

    std::vector<std::future<JobResult>> futures;
    futures.reserve(kJobs);
    for (int j = 0; j < kJobs; ++j) {
        futures.push_back(scheduler.submit(coinSpec(1000 + uint64_t(j))));
    }
    for (int j = 0; j < kJobs; ++j) {
        const JobResult result = futures[size_t(j)].get();
        EXPECT_EQ(int(result.status), int(JobStatus::kOk))
            << result.error_message;
        // Recovery must be invisible in the payload: compare against a
        // direct, chaos-free execution of the same spec.
        expectResultsIdentical(result,
                               executeJob(coinSpec(1000 + uint64_t(j))));
    }

    const serve::MetricsSnapshot metrics = scheduler.metrics();
    EXPECT_EQ(metrics.completed, uint64_t(kJobs));
    EXPECT_EQ(metrics.failed, 0u);
    EXPECT_GT(metrics.retried, 0u);
}

TEST(SchedulerChaosTest, ExhaustedRetriesFailWithTheTransientError)
{
    ChaosOptions chaos;
    chaos.p_throw = 1.0;
    chaos.first_attempt_only = false; // every attempt dies
    const ChaosPlan plan(chaos);

    SchedulerOptions options;
    options.workers = 1;
    options.retry.max_attempts = 3;
    options.retry.base_backoff_ms = 0.1;
    options.exec_hook = hookFromPlan(plan);
    Scheduler scheduler(options);

    const JobResult result = scheduler.submit(coinSpec(5)).get();
    EXPECT_EQ(int(result.status), int(JobStatus::kFailed));
    EXPECT_EQ(result.error_code, ErrorCode::kGeneric);

    const serve::MetricsSnapshot metrics = scheduler.metrics();
    EXPECT_EQ(metrics.failed, 1u);
    EXPECT_EQ(metrics.retried, 2u); // attempts 0 and 1 were re-queued
}

TEST(SchedulerChaosTest, PermanentErrorsDoNotBurnRetries)
{
    SchedulerOptions options;
    options.workers = 1;
    Scheduler scheduler(options);

    JobSpec bad = coinSpec(1);
    bad.policy = AssertionPolicy::kRetry; // plain path: unsupported
    const JobResult result = scheduler.submit(std::move(bad)).get();
    EXPECT_EQ(int(result.status), int(JobStatus::kFailed));
    EXPECT_EQ(result.error_code, ErrorCode::kPolicyUnsupported);
    EXPECT_EQ(scheduler.metrics().retried, 0u);
}

TEST(SchedulerChaosTest, OutOfMemoryFailsTypedWithoutRetry)
{
    // Running out of memory is deterministic for a job: a retry would
    // only exhaust memory again, so the first attempt is final.
    std::atomic<int> attempts{0};
    SchedulerOptions options;
    options.workers = 1;
    options.cache_capacity = 0;
    options.retry.base_backoff_ms = 0.1;
    options.exec_hook = [&attempts](uint64_t, int) {
        attempts.fetch_add(1);
        throw std::bad_alloc();
    };
    Scheduler scheduler(options);

    const JobResult result = scheduler.submit(coinSpec(6)).get();
    EXPECT_EQ(int(result.status), int(JobStatus::kFailed));
    EXPECT_EQ(result.error_code, ErrorCode::kResourceExhausted);
    EXPECT_STREQ(errorCodeName(result.error_code), "resource_exhausted");
    EXPECT_EQ(attempts.load(), 1);
    EXPECT_EQ(scheduler.metrics().retried, 0u);
}

// ---------------------------------------------------------------------
// Scheduler chaos: wedged workers, watchdog, respawn
// ---------------------------------------------------------------------

TEST(SchedulerChaosTest, WedgedWorkersAreReclaimedRespawnedAndRetried)
{
    constexpr int kJobs = 4;

    ChaosOptions chaos;
    chaos.p_stall = 1.0;     // every first attempt wedges its worker
    chaos.stall_ms = 400.0;  // far past the stall timeout
    const ChaosPlan plan(chaos);

    SchedulerOptions options;
    options.workers = 2;
    options.cache_capacity = 0;
    options.retry.max_attempts = 5;
    options.retry.base_backoff_ms = 0.1;
    options.supervisor.stall_timeout_ms = 100.0;
    options.supervisor.poll_interval_ms = 5.0;
    options.exec_hook = hookFromPlan(plan);

    std::atomic<int> callbacks{0};
    std::vector<JobResult> results(kJobs);
    {
        Scheduler scheduler(options);
        std::vector<std::promise<void>> done(kJobs);
        for (int j = 0; j < kJobs; ++j) {
            scheduler.submit(coinSpec(2000 + uint64_t(j)),
                             [j, &results, &callbacks,
                              &done](JobResult result) {
                                 results[size_t(j)] = std::move(result);
                                 callbacks.fetch_add(1);
                                 done[size_t(j)].set_value();
                             });
        }
        for (int j = 0; j < kJobs; ++j) {
            done[size_t(j)].get_future().wait();
        }

        const serve::MetricsSnapshot metrics = scheduler.metrics();
        EXPECT_EQ(metrics.completed, uint64_t(kJobs));
        EXPECT_GT(metrics.worker_lost, 0u);
        EXPECT_GT(metrics.respawned, 0u);
        EXPECT_GT(metrics.retried, 0u);
        // Destructor: stop() must join the respawned workers AND the
        // zombies still sleeping inside their stalled attempts.
    }

    // Exactly one resolution per job, ever — the zombie's late result
    // lost the claim CAS and was dropped, not double-delivered.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(callbacks.load(), kJobs);
    for (int j = 0; j < kJobs; ++j) {
        EXPECT_EQ(int(results[size_t(j)].status), int(JobStatus::kOk));
        expectResultsIdentical(results[size_t(j)],
                               executeJob(coinSpec(2000 + uint64_t(j))));
    }
}

TEST(SchedulerChaosTest, WorkerLostWithoutBudgetFailsTyped)
{
    ChaosOptions chaos;
    chaos.p_stall = 1.0;
    chaos.stall_ms = 300.0;
    chaos.first_attempt_only = false;
    const ChaosPlan plan(chaos);

    SchedulerOptions options;
    options.workers = 1;
    options.retry.max_attempts = 1; // no budget: first loss is final
    options.supervisor.stall_timeout_ms = 50.0;
    options.supervisor.poll_interval_ms = 5.0;
    options.exec_hook = hookFromPlan(plan);
    Scheduler scheduler(options);

    const JobResult result = scheduler.submit(coinSpec(3)).get();
    EXPECT_EQ(int(result.status), int(JobStatus::kFailed));
    EXPECT_EQ(result.error_code, ErrorCode::kWorkerLost);
    EXPECT_EQ(scheduler.metrics().worker_lost, 1u);
}

// ---------------------------------------------------------------------
// Scheduler: breaker integration and graceful drain
// ---------------------------------------------------------------------

TEST(SchedulerChaosTest, BreakerShedsAfterFailuresAndRecovers)
{
    ManualClock clock;
    ChaosOptions chaos;
    chaos.p_throw = 1.0;
    chaos.first_attempt_only = false;
    const ChaosPlan plan(chaos);

    SchedulerOptions options;
    options.workers = 1;
    options.retry.max_attempts = 1; // failures reach the breaker directly
    options.breaker.enabled = true;
    options.breaker.window = 8;
    options.breaker.min_samples = 4;
    options.breaker.failure_threshold = 0.5;
    options.breaker.open_cooldown_ms = 50.0;
    options.clock = &clock;
    // Fault only the first four jobs; later ones run clean.
    options.exec_hook = [plan](uint64_t seq, int attempt) {
        if (seq < 4) hookFromPlan(plan)(seq, attempt);
    };
    Scheduler scheduler(options);

    for (int j = 0; j < 4; ++j) {
        const JobResult result = scheduler.submit(coinSpec(10)).get();
        EXPECT_EQ(int(result.status), int(JobStatus::kFailed));
    }
    EXPECT_EQ(scheduler.breakerStats().state,
              resilience::CircuitBreaker::State::kOpen);

    // Open: submissions shed with a typed error, costing no queue slot.
    try {
        scheduler.submit(coinSpec(11));
        FAIL() << "open breaker must shed";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kShedding);
    }
    EXPECT_EQ(scheduler.metrics().shed, 1u);

    // Cooldown elapses (manual time): the probe runs clean and closes.
    clock.advanceMs(51.0);
    const JobResult probe = scheduler.submit(coinSpec(12)).get();
    EXPECT_EQ(int(probe.status), int(JobStatus::kOk));
    EXPECT_EQ(scheduler.breakerStats().state,
              resilience::CircuitBreaker::State::kClosed);
    const JobResult after = scheduler.submit(coinSpec(13)).get();
    EXPECT_EQ(int(after.status), int(JobStatus::kOk));
}

TEST(SchedulerChaosTest, DrainForTimesOutThenStopCancelsCleanly)
{
    SchedulerOptions options;
    options.workers = 1;
    std::promise<void> started;
    std::atomic<bool> first_call{true};
    options.exec_hook = [&started, &first_call](uint64_t, int) {
        if (first_call.exchange(false)) started.set_value();
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
    };
    Scheduler scheduler(options);

    auto running = scheduler.submit(coinSpec(1));
    auto queued = scheduler.submit(coinSpec(2));
    // Stop only once the first job is really in flight; stopping before
    // the worker claims it would cancel both.
    started.get_future().wait();

    EXPECT_FALSE(scheduler.drainFor(5.0)); // far too short

    scheduler.stop();
    const JobResult first = running.get();
    const JobResult second = queued.get();
    // The in-flight job finished; the queued one was cancelled typed.
    EXPECT_EQ(int(first.status), int(JobStatus::kOk));
    EXPECT_EQ(int(second.status), int(JobStatus::kCancelled));
    EXPECT_EQ(second.error_code, ErrorCode::kServiceStopped);
    EXPECT_EQ(scheduler.metrics().cancelled, 1u);

    // Idle after stop: drainFor reports drained immediately.
    EXPECT_TRUE(scheduler.drainFor(1.0));
}

// ---------------------------------------------------------------------
// Malformed-input corpus (wire protocol + JSON parser)
// ---------------------------------------------------------------------

TEST(CorpusTest, AdversarialPayloadsFailTypedAndNeverCrash)
{
    const auto& corpus = adversarialWireCorpus();
    ASSERT_GE(corpus.size(), 50u);

    for (const AdversarialPayload& entry : corpus) {
        bool threw_typed = false;
        try {
            serve::parseRequest(entry.payload);
        } catch (const UserError& err) {
            threw_typed = true;
            // Every rejection is a typed caller error, never a retryable
            // or internal classification.
            EXPECT_TRUE(err.code() == ErrorCode::kBadRequest ||
                        err.code() == ErrorCode::kQasmSyntax)
                << entry.why << ": surfaced " << errorCodeName(err.code());
        }
        // No other exception type may escape (std::exception would have
        // aborted the test run via gtest's unexpected-exception path).
        if (entry.must_fail) {
            EXPECT_TRUE(threw_typed)
                << "payload survived but must fail: " << entry.why;
        }
    }
}

TEST(CorpusTest, CorpusSurvivorsProduceUsableRequests)
{
    // The must_fail=false entries exist to prove hostile-but-legal input
    // parses into a well-formed request.
    for (const AdversarialPayload& entry : adversarialWireCorpus()) {
        if (entry.must_fail) continue;
        const serve::WireRequest request =
            serve::parseRequest(entry.payload);
        EXPECT_TRUE(request.op == serve::RequestOp::kMetrics ||
                    request.op == serve::RequestOp::kShutdown)
            << entry.why;
    }
}

// ---------------------------------------------------------------------
// Replay payloads
// ---------------------------------------------------------------------

TEST(ReplayTest, PayloadHashIgnoresTimingAndCacheBits)
{
    const JobResult a = executeJob(coinSpec(77));
    JobResult b = executeJob(coinSpec(77));
    b.queue_ms = 123.0;
    b.exec_ms = 456.0;
    b.cache_hit = true;
    b.tag = "different";
    EXPECT_EQ(serve::payloadHash(a).str(), serve::payloadHash(b).str());

    const JobResult c = executeJob(coinSpec(78));
    EXPECT_NE(serve::payloadHash(a).str(), serve::payloadHash(c).str());
}

TEST(ReplayTest, EncodeReplayIsTimingFreeAndReproducible)
{
    JobResult a = executeJob(coinSpec(9));
    JobResult b = executeJob(coinSpec(9));
    a.queue_ms = 1.0;
    b.queue_ms = 99.0; // timing noise must not reach the encoding
    const std::string line_a = serve::encodeReplay("job", a);
    const std::string line_b = serve::encodeReplay("job", b);
    EXPECT_EQ(line_a, line_b);
    EXPECT_EQ(line_a.find("queue_ms"), std::string::npos);
    EXPECT_EQ(line_a.find("exec_ms"), std::string::npos);
    EXPECT_EQ(line_a.find("cache_hit"), std::string::npos);
}

// ---------------------------------------------------------------------
// Network-fault plans (qa_netchaos model)
// ---------------------------------------------------------------------

TEST(NetFaultTest, EmptyPlanFaultsNothing)
{
    const NetFaultPlan plan = NetFaultPlan::parse("", 1);
    for (uint64_t conn = 0; conn < 20; ++conn) {
        EXPECT_FALSE(plan.connFaults(conn).any());
        EXPECT_FALSE(plan.partialWrite(conn, 0));
    }
    EXPECT_FALSE(plan.hasPartition());
}

TEST(NetFaultTest, EveryCountsOneBasedSoTheFirstConnectionIsSpared)
{
    // every=3 hits connections 2, 5, 8, ...: a fresh fleet's first
    // connection to each shard comes up clean before faults start.
    const NetFaultPlan plan = NetFaultPlan::parse("reset:every=3", 7);
    for (uint64_t conn = 0; conn < 12; ++conn) {
        EXPECT_EQ(plan.connFaults(conn).reset, conn % 3 == 2)
            << "conn " << conn;
    }
}

TEST(NetFaultTest, FamiliesComposeOnOneConnection)
{
    const NetFaultPlan plan = NetFaultPlan::parse(
        "reset:every=2,after_bytes=512;"
        "slowloris:every=2,delay_ms=20,chunk=8,bytes=4096;"
        "blackhole:every=4,dur=250",
        3);
    const NetConnFaults faults = plan.connFaults(3); // hit by all three
    EXPECT_TRUE(faults.reset);
    EXPECT_EQ(faults.reset_after_bytes, 512u);
    EXPECT_TRUE(faults.slowloris);
    EXPECT_EQ(faults.slowloris_delay_ms, 20.0);
    EXPECT_EQ(faults.slowloris_chunk, 8u);
    EXPECT_EQ(faults.slowloris_bytes, 4096u);
    EXPECT_TRUE(faults.blackhole);
    EXPECT_EQ(faults.blackhole_dur_ms, 250.0);
    EXPECT_TRUE(faults.any());

    const NetConnFaults spared = plan.connFaults(0);
    EXPECT_FALSE(spared.any());
}

TEST(NetFaultTest, PartitionWindowIsHalfOpen)
{
    const NetFaultPlan plan =
        NetFaultPlan::parse("partition:at=1000,dur=500", 1);
    ASSERT_TRUE(plan.hasPartition());
    EXPECT_EQ(plan.partitionAtMs(), 1000.0);
    EXPECT_EQ(plan.partitionEndMs(), 1500.0);
    EXPECT_FALSE(plan.inPartition(999.0));
    EXPECT_TRUE(plan.inPartition(1000.0));
    EXPECT_TRUE(plan.inPartition(1499.0));
    EXPECT_FALSE(plan.inPartition(1500.0));
}

TEST(NetFaultTest, PartialWritesAreSeededAndDeterministic)
{
    const NetFaultPlan a = NetFaultPlan::parse("partial:p=0.5", 11);
    const NetFaultPlan b = NetFaultPlan::parse("partial:p=0.5", 11);
    const NetFaultPlan c = NetFaultPlan::parse("partial:p=0.5", 12);
    size_t hits = 0;
    size_t differs_from_c = 0;
    for (uint64_t conn = 0; conn < 8; ++conn) {
        for (uint64_t chunk = 0; chunk < 64; ++chunk) {
            const bool split = a.partialWrite(conn, chunk);
            // Same seed -> identical per-chunk decisions, every time.
            EXPECT_EQ(split, b.partialWrite(conn, chunk));
            if (split) hits++;
            if (split != c.partialWrite(conn, chunk)) differs_from_c++;
        }
    }
    // p=0.5 over 512 chunks: comfortably within [25%, 75%].
    EXPECT_GT(hits, 128u);
    EXPECT_LT(hits, 384u);
    // A different seed is a different fault schedule.
    EXPECT_GT(differs_from_c, 0u);

    // p=0 never splits, p=1 always splits — no RNG on the edges.
    const NetFaultPlan never = NetFaultPlan::parse("partial:p=0", 1);
    const NetFaultPlan always = NetFaultPlan::parse("partial:p=1", 1);
    EXPECT_FALSE(never.partialWrite(0, 0));
    EXPECT_TRUE(always.partialWrite(0, 0));
}

TEST(NetFaultTest, MalformedPlansAreTypedErrors)
{
    const uint64_t seed = 1;
    // Unknown family.
    EXPECT_THROW(NetFaultPlan::parse("explode:every=2", seed), UserError);
    // Unknown key within a known family.
    EXPECT_THROW(NetFaultPlan::parse("reset:every=2,whoops=1", seed),
                 UserError);
    // Missing required key.
    EXPECT_THROW(NetFaultPlan::parse("slowloris:every=2", seed),
                 UserError);
    // Malformed number and malformed key=value.
    EXPECT_THROW(NetFaultPlan::parse("reset:every=abc", seed), UserError);
    EXPECT_THROW(NetFaultPlan::parse("reset:every", seed), UserError);
    // Probability out of range.
    EXPECT_THROW(NetFaultPlan::parse("partial:p=1.5", seed), UserError);
}

TEST(NetFaultTest, DescribeSummarizesEveryActiveFamily)
{
    const NetFaultPlan plan = NetFaultPlan::parse(
        "reset:every=7;partition:at=2000,dur=5000;partial:p=0.25", 9);
    const std::string text = plan.describe();
    EXPECT_NE(text.find("seed=9"), std::string::npos) << text;
    EXPECT_NE(text.find("reset(every=7"), std::string::npos) << text;
    EXPECT_NE(text.find("partition(at=2000ms,dur=5000ms"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("partial(p=0.25)"), std::string::npos) << text;
}

} // namespace
} // namespace resilience
} // namespace qa
