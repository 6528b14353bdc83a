/**
 * @file
 * Tests for the resilience layer (src/resilience) and its integration
 * into the assertion service: backoff determinism, the crash-safe
 * journal and its torn-tail scanner, the scheduler's one-attempt
 * failure and drain paths, the malformed-input corpus for the wire
 * protocol, and the network fault plans.
 *
 * The suite runs under TSAN and ASan in tier1: the invariants it
 * enforces are "the service never crashes, never loses an acknowledged
 * job, and answers each one exactly once".
 */
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "resilience/journal.hpp"
#include "resilience/netfault.hpp"
#include "resilience/retry.hpp"
#include "serve/job.hpp"
#include "serve/json.hpp"
#include "serve/scheduler.hpp"
#include "serve/wire.hpp"
#include "chaos.hpp"

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

std::string
tempPath(const std::string& name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

// ---------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------

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
// Scheduler: one attempt per job, graceful drain
// ---------------------------------------------------------------------

TEST(SchedulerChaosTest, PermanentErrorsDoNotBurnRetries)
{
    // A job's result is a pure function of its spec, so every failure
    // is final: a typed caller mistake and an unclassified throw alike
    // run once and answer with their own code.
    std::atomic<int> runs{0};
    SchedulerOptions options;
    options.workers = 1;
    options.cache_capacity = 0;
    options.exec_hook = [&runs](uint64_t seq) {
        runs.fetch_add(1);
        if (seq == 1) throw std::runtime_error("job function threw");
    };
    Scheduler scheduler(options);

    JobSpec bad = coinSpec(1);
    bad.policy = AssertionPolicy::kRepair; // plain path: unsupported
    const JobResult unsupported = scheduler.submit(std::move(bad)).get();
    EXPECT_EQ(int(unsupported.status), int(JobStatus::kFailed));
    EXPECT_EQ(unsupported.error_code, ErrorCode::kPolicyUnsupported);

    const JobResult thrown = scheduler.submit(coinSpec(2)).get();
    EXPECT_EQ(int(thrown.status), int(JobStatus::kFailed));
    EXPECT_EQ(thrown.error_code, ErrorCode::kGeneric);

    EXPECT_EQ(runs.load(), 2);
    EXPECT_EQ(scheduler.metrics().failed, 2u);
}

TEST(SchedulerChaosTest, OutOfMemoryFailsTypedWithoutRetry)
{
    // Running out of memory is deterministic for a job: a retry would
    // only exhaust memory again, so the first attempt is final.
    std::atomic<int> attempts{0};
    SchedulerOptions options;
    options.workers = 1;
    options.cache_capacity = 0;
    options.exec_hook = [&attempts](uint64_t) {
        attempts.fetch_add(1);
        throw std::bad_alloc();
    };
    Scheduler scheduler(options);

    const JobResult result = scheduler.submit(coinSpec(6)).get();
    EXPECT_EQ(int(result.status), int(JobStatus::kFailed));
    EXPECT_EQ(result.error_code, ErrorCode::kResourceExhausted);
    EXPECT_STREQ(errorCodeName(result.error_code), "resource_exhausted");
    EXPECT_EQ(attempts.load(), 1);
}

TEST(SchedulerChaosTest, DrainForTimesOutThenStopCancelsCleanly)
{
    SchedulerOptions options;
    options.workers = 1;
    std::promise<void> started;
    std::atomic<bool> first_call{true};
    options.exec_hook = [&started, &first_call](uint64_t) {
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
