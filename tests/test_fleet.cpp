/**
 * @file
 * Tests for the fleet layer (src/fleet): consistent-hash ring edge
 * cases (single shard, all shards down, flap-and-recover affinity,
 * distribution uniformity), the shard health state machine, the
 * exactly-once pending table, child-process line plumbing, and — when
 * the qassertd binary is available — FleetRouter integration against
 * real shard processes, including SIGKILL failover and the typed
 * all-shards-down error.
 */
#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/net.hpp"
#include "fleet/health.hpp"
#include "fleet/pending.hpp"
#include "fleet/process.hpp"
#include "fleet/ring.hpp"
#include "fleet/router.hpp"
#include "fleet/transport.hpp"
#include "serve/job.hpp"
#include "serve/json.hpp"
#include "serve/wire.hpp"

namespace qa
{
namespace fleet
{
namespace
{

uint64_t
splitmix64(uint64_t& state)
{
    state += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

Hash128
randomKey(uint64_t& state)
{
    Hash128 key;
    key.hi = splitmix64(state);
    key.lo = splitmix64(state);
    return key;
}

// ---------------------------------------------------------------- ring

TEST(RingTest, SingleShardOwnsEverything)
{
    const HashRing ring(1);
    uint64_t state = 1;
    for (int i = 0; i < 100; ++i) {
        const Hash128 key = randomKey(state);
        EXPECT_EQ(ring.shardFor(key), 0u);
        const auto routed = ring.route(key, [](size_t) { return true; });
        ASSERT_TRUE(routed.has_value());
        EXPECT_EQ(*routed, 0u);
        EXPECT_EQ(ring.preferenceChain(key),
                  std::vector<size_t>{0});
    }
}

TEST(RingTest, ZeroShardsIsATypedError)
{
    EXPECT_THROW(HashRing(0), UserError);
    EXPECT_THROW(HashRing(2, 0), UserError); // zero vnodes per shard
}

TEST(RingTest, AllShardsDownRoutesToNothingNotForever)
{
    const HashRing ring(4);
    uint64_t state = 2;
    for (int i = 0; i < 50; ++i) {
        const auto routed =
            ring.route(randomKey(state), [](size_t) { return false; });
        EXPECT_FALSE(routed.has_value());
    }
}

TEST(RingTest, FlapRestoresAffinity)
{
    const HashRing ring(4);
    uint64_t state = 3;
    for (int i = 0; i < 200; ++i) {
        const Hash128 key = randomKey(state);
        const size_t home = ring.shardFor(key);
        const std::vector<size_t> chain = ring.preferenceChain(key);
        ASSERT_EQ(chain.size(), 4u);
        EXPECT_EQ(chain[0], home);

        // Home goes down: the key spills to the first chain successor.
        const auto spilled = ring.route(
            key, [&](size_t shard) { return shard != home; });
        ASSERT_TRUE(spilled.has_value());
        EXPECT_NE(*spilled, home);
        EXPECT_EQ(*spilled, chain[1]);

        // Home recovers: the very same key routes home again — cache
        // affinity restored by construction, not by bookkeeping.
        const auto recovered =
            ring.route(key, [](size_t) { return true; });
        ASSERT_TRUE(recovered.has_value());
        EXPECT_EQ(*recovered, home);
    }
}

TEST(RingTest, PreferenceChainListsEveryShardOnce)
{
    const HashRing ring(8);
    uint64_t state = 4;
    for (int i = 0; i < 50; ++i) {
        const std::vector<size_t> chain =
            ring.preferenceChain(randomKey(state));
        ASSERT_EQ(chain.size(), 8u);
        EXPECT_EQ(std::set<size_t>(chain.begin(), chain.end()).size(), 8u);
    }
}

TEST(RingTest, DistributionIsRoughlyUniformAcrossShardCounts)
{
    // jobKey output is uniform by construction (it is a hash); the ring
    // must not concentrate it. With 64 vnodes per shard the max/min
    // share stays well within ±45% of the mean for every fleet size the
    // smoke tests run.
    for (const size_t shards : {size_t(2), size_t(4), size_t(8)}) {
        const HashRing ring(shards);
        std::vector<size_t> hits(shards, 0);
        uint64_t state = 0xD15C0 + shards;
        const size_t keys = 20000;
        for (size_t i = 0; i < keys; ++i) {
            hits[ring.shardFor(randomKey(state))]++;
        }
        const double mean = double(keys) / double(shards);
        for (size_t s = 0; s < shards; ++s) {
            EXPECT_GT(double(hits[s]), 0.55 * mean)
                << shards << " shards, shard " << s;
            EXPECT_LT(double(hits[s]), 1.45 * mean)
                << shards << " shards, shard " << s;
        }
    }
}

TEST(RingTest, LayoutIsDeterministicAcrossInstances)
{
    // Same parameters => same mapping, so affinity survives a router
    // restart (and a respawned router finds the same cache-warm shards).
    const HashRing a(5), b(5);
    uint64_t state = 6;
    for (int i = 0; i < 200; ++i) {
        const Hash128 key = randomKey(state);
        EXPECT_EQ(a.shardFor(key), b.shardFor(key));
        EXPECT_EQ(a.preferenceChain(key), b.preferenceChain(key));
    }
}

// -------------------------------------------------------------- health

TEST(HealthTest, FailureStreakTakesAShardDownRecoveryBringsItBack)
{
    HealthTracker health; // fail_threshold 3, recover_threshold 2
    EXPECT_EQ(health.state(), ShardHealth::kUp);

    health.onFailure();
    EXPECT_EQ(health.state(), ShardHealth::kDegraded);

    // A success clears the streak: degraded is sticky only while
    // failures keep coming.
    health.onSuccess();
    EXPECT_EQ(health.state(), ShardHealth::kUp);

    health.onFailure();
    health.onFailure();
    EXPECT_EQ(health.state(), ShardHealth::kDegraded);
    health.onFailure();
    EXPECT_EQ(health.state(), ShardHealth::kDown);
    EXPECT_EQ(health.downTransitions(), 1u);

    // One pong is not recovery.
    health.onSuccess();
    EXPECT_EQ(health.state(), ShardHealth::kDown);
    health.onSuccess();
    EXPECT_EQ(health.state(), ShardHealth::kUp);
}

TEST(HealthTest, ProcessExitIsImmediatelyDown)
{
    HealthTracker health;
    health.onProcessExit();
    EXPECT_EQ(health.state(), ShardHealth::kDown);
    EXPECT_EQ(health.downTransitions(), 1u);

    // Interleaved failures must not double-count the transition.
    health.onFailure();
    EXPECT_EQ(health.state(), ShardHealth::kDown);
    EXPECT_EQ(health.downTransitions(), 1u);
}

TEST(HealthTest, ProbeJitterOscillationNeverReachesDown)
{
    // Satellite: rapid up->degraded->up flapping — one dropped probe
    // followed by a good one, over and over, as network jitter produces
    // — must never accumulate into a down transition (which would
    // trigger failover and dump the shard's keyspace on its siblings).
    HealthTracker health; // fail_threshold 3
    for (int i = 0; i < 1000; ++i) {
        health.onFailure();
        EXPECT_EQ(health.state(), ShardHealth::kDegraded);
        health.onSuccess();
        EXPECT_EQ(health.state(), ShardHealth::kUp);
    }
    EXPECT_EQ(health.downTransitions(), 0u);

    // Even two failures out of every three probes stays degraded: only
    // a *consecutive* failure streak is allowed to take a shard down.
    for (int i = 0; i < 300; ++i) {
        health.onFailure();
        health.onFailure();
        health.onSuccess();
        EXPECT_NE(health.state(), ShardHealth::kDown);
    }
    EXPECT_EQ(health.downTransitions(), 0u);
}

// ------------------------------------------------------------- pending

TEST(PendingTest, ResolveThroughAnyAliasIsExactlyOnce)
{
    PendingTable table;
    serve::JsonValue request = serve::JsonValue::parse("{\"op\":\"run\"}");
    const PendingPtr job =
        table.add("client-1", std::move(request), Hash128{}, 0.0, {0, 1},
                  std::chrono::steady_clock::time_point{});
    const std::string first = table.issueAlias(job);
    const std::string failover = table.issueAlias(job);
    EXPECT_NE(first, failover);
    EXPECT_EQ(table.find(first).get(), job.get());
    EXPECT_EQ(table.find(failover).get(), job.get());
    EXPECT_EQ(table.size(), 1u);

    // First response wins...
    EXPECT_EQ(table.resolve(failover).get(), job.get());
    EXPECT_EQ(table.size(), 0u);
    // ...and every other alias of the job is dead: a late answer to the
    // superseded dispatch is a stray, not a second client response.
    EXPECT_EQ(table.resolve(first), nullptr);
    EXPECT_EQ(table.resolve(failover), nullptr);
    EXPECT_EQ(table.find(first), nullptr);
}

TEST(PendingTest, EraseDropsJobsThatNeverDispatched)
{
    PendingTable table;
    const PendingPtr job =
        table.add("c", serve::JsonValue::parse("{}"), Hash128{}, 0.0, {0},
                  std::chrono::steady_clock::time_point{});
    EXPECT_EQ(table.size(), 1u);
    table.erase(job);
    EXPECT_EQ(table.size(), 0u);
}

TEST(PendingTest, OnShardFindsOutstandingDispatches)
{
    PendingTable table;
    const PendingPtr a =
        table.add("a", serve::JsonValue::parse("{}"), Hash128{}, 0.0,
                  {0, 1}, std::chrono::steady_clock::time_point{});
    const PendingPtr b =
        table.add("b", serve::JsonValue::parse("{}"), Hash128{}, 0.0,
                  {1, 0}, std::chrono::steady_clock::time_point{});
    a->awaiting = 0;
    b->awaiting = 1;
    EXPECT_EQ(table.onShard(0).size(), 1u);
    EXPECT_EQ(table.onShard(0)[0].get(), a.get());
    EXPECT_EQ(table.onShard(1)[0].get(), b.get());
    EXPECT_TRUE(table.onShard(2).empty());
}

// ------------------------------------------------------------- process

/** Write all of `data` to a pipe's write end (partial writes retried). */
void
writeAllTo(int fd, const std::string& data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        ASSERT_GT(n, 0);
        off += size_t(n);
    }
}

/** A pipe already holding `data` with its write end closed: the read
 * end sees exactly those bytes, then EOF. `data` must fit the pipe
 * buffer (64 KiB on Linux). */
int
pipeHolding(const std::string& data)
{
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) return -1;
    writeAllTo(fds[1], data);
    ::close(fds[1]);
    return fds[0];
}

/** VmRSS of this process in KiB, from /proc/self/status. */
size_t
residentKiB()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmRSS:") {
            size_t kib = 0;
            status >> kib;
            return kib;
        }
    }
    return 0;
}

TEST(ReadLineTest, SplitsLinesAndReportsEof)
{
    // A blank line is a line, and a final line without its newline
    // still comes back (qassertd's stdin may end that way).
    const int fd = pipeHolding("alpha\nbeta\n\ngamma");
    ASSERT_GE(fd, 0);
    net::LineReader reader(fd, 64);
    std::string line;
    for (const char* want : {"alpha", "beta", "", "gamma"}) {
        ASSERT_EQ(reader.next(&line), net::LineReader::Status::kOk);
        EXPECT_EQ(line, want);
    }
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kEof);
    ::close(fd);
}

TEST(ReadLineTest, OversizeLineIsConsumedAndStreamResyncs)
{
    const int fd = pipeHolding(std::string(100, 'x') + "\nnext\n");
    ASSERT_GE(fd, 0);
    net::LineReader reader(fd, 16);
    std::string line;
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kOverflow);
    // The oversize line was consumed to its terminator, so the next
    // read starts at the next request instead of mid-garbage.
    ASSERT_EQ(reader.next(&line), net::LineReader::Status::kOk);
    EXPECT_EQ(line, "next");
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kEof);
    ::close(fd);
}

TEST(ReadLineTest, ExactBoundIsNotOverflow)
{
    // A line of exactly the bound is not overflow; one byte more is,
    // and so is an oversize final line with no newline (never kEof).
    const int fd = pipeHolding("1234\n12345\n" + std::string(9, 'y'));
    ASSERT_GE(fd, 0);
    net::LineReader reader(fd, 4);
    std::string line;
    ASSERT_EQ(reader.next(&line), net::LineReader::Status::kOk);
    EXPECT_EQ(line, "1234");
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kOverflow);
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kOverflow);
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kEof);
    ::close(fd);
}

TEST(ProcessTest, EchoRoundTripAndEofDrain)
{
    ChildProcess cat({"/bin/cat"});
    ASSERT_TRUE(cat.writeLine("hello fleet"));
    net::LineReader reader(cat.readFd());
    std::string line;
    ASSERT_EQ(reader.next(&line), net::LineReader::Status::kOk);
    EXPECT_EQ(line, "hello fleet");

    // EOF on stdin drains cat; its stdout EOF follows.
    cat.closeStdin();
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kEof);
    for (int i = 0; i < 200 && !cat.tryReap(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(cat.reaped());
}

TEST(ProcessTest, OverlongLinesAreBoundedNotBuffered)
{
    ChildProcess cat({"/bin/cat"});
    ASSERT_TRUE(cat.writeLine(std::string(300, 'x')));
    ASSERT_TRUE(cat.writeLine("short"));
    cat.closeStdin();
    net::LineReader reader(cat.readFd(), 64);
    std::string line;
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kOverflow);
    ASSERT_EQ(reader.next(&line), net::LineReader::Status::kOk);
    EXPECT_EQ(line, "short"); // stream stayed line-synchronised
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kEof);

    // 64 MiB in one line, arriving chunk by chunk: the reader drops it
    // as it comes instead of buffering it until the newline.
    int fds[2] = {-1, -1};
    ASSERT_EQ(::pipe(fds), 0);
    const size_t before_kib = residentKiB();
    std::thread writer([fd = fds[1]] {
        const std::string chunk(size_t(1) << 16, 'x');
        for (int i = 0; i < 1024; ++i) writeAllTo(fd, chunk);
        writeAllTo(fd, "\nok\n");
        ::close(fd);
    });
    net::LineReader huge(fds[0], 4096);
    EXPECT_EQ(huge.next(&line), net::LineReader::Status::kOverflow);
    EXPECT_EQ(huge.next(&line), net::LineReader::Status::kOk);
    EXPECT_EQ(line, "ok");
    const size_t after_kib = residentKiB(); // reader still alive
    EXPECT_EQ(huge.next(&line), net::LineReader::Status::kEof);
    writer.join();
    ::close(fds[0]);
    EXPECT_LT(after_kib, before_kib + 8 * 1024)
        << "an oversize line stayed resident";
}

TEST(ProcessTest, ExecFailureIsImmediateEofNotAHang)
{
    ChildProcess broken({"/nonexistent/binary/for/sure"});
    net::LineReader reader(broken.readFd());
    std::string line;
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kEof);
}

size_t
countOpenFds()
{
    size_t count = 0;
    DIR* dir = opendir("/proc/self/fd");
    if (dir == nullptr) return 0;
    while (readdir(dir) != nullptr) count++;
    closedir(dir);
    return count;
}

TEST(ProcessTest, ReapPathClosesPipeFdsNoLeakAcrossRespawns)
{
    // Satellite regression: a respawn loop (exec failures included)
    // must return every pipe fd — a leak here starves a long-lived
    // router of descriptors one flap at a time.
    const size_t before = countOpenFds();
    for (int i = 0; i < 8; ++i) {
        ChildProcess broken({"/nonexistent/binary/for/sure"});
        net::LineReader reader(broken.readFd());
        std::string line;
        EXPECT_EQ(reader.next(&line), net::LineReader::Status::kEof);
        broken.forceReap();
    }
    for (int i = 0; i < 4; ++i) {
        ChildProcess cat({"/bin/cat"});
        cat.closeStdin();
        cat.forceReap();
    }
    EXPECT_EQ(countOpenFds(), before);
}

TEST(ProcessTest, IdleReadTimeoutSurfacesInsteadOfBlockingForever)
{
    // cat echoes only what it is sent: an idle stream must surface
    // kTimeout within the bound, and the reader must stay usable.
    ChildProcess cat({"/bin/cat"});
    net::LineReader reader(cat.readFd(), size_t(1) << 20, 60.0);
    std::string line;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kTimeout);
    const double waited_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_GE(waited_ms, 50.0);
    EXPECT_LT(waited_ms, 5000.0);

    // Bytes that arrive after a timeout are not lost.
    ASSERT_TRUE(cat.writeLine("late but intact"));
    ASSERT_EQ(reader.next(&line), net::LineReader::Status::kOk);
    EXPECT_EQ(line, "late but intact");
    cat.forceReap();
}

// ---------------------------------------------------------- harnesses

/** Thread-safe collector for router-emitted response lines. */
struct Collector
{
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::string> lines;

    FleetRouter::Emit
    sink()
    {
        return [this](const std::string& line) {
            std::lock_guard<std::mutex> lock(mutex);
            lines.push_back(line);
            cv.notify_all();
        };
    }

    bool
    waitForCount(size_t n, double timeout_ms)
    {
        std::unique_lock<std::mutex> lock(mutex);
        return cv.wait_for(
            lock, std::chrono::duration<double, std::milli>(timeout_ms),
            [&] { return lines.size() >= n; });
    }

    std::vector<std::string>
    snapshot()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return lines;
    }
};

std::string
ghzRequest(const std::string& id, int width, uint64_t seed)
{
    std::string qasm = "OPENQASM 2.0;\nqreg q[" + std::to_string(width) +
                       "];\ncreg c[" + std::to_string(width) +
                       "];\nh q[0];\n";
    for (int k = 1; k < width; ++k) {
        qasm += "cx q[0],q[" + std::to_string(k) + "];\n";
    }
    for (int k = 0; k < width; ++k) {
        qasm += "measure q[" + std::to_string(k) + "] -> c[" +
                std::to_string(k) + "];\n";
    }
    return "{\"id\":\"" + id + "\",\"qasm\":\"" + serve::jsonEscape(qasm) +
           "\",\"shots\":64,\"seed\":" + std::to_string(seed) +
           ",\"assert_clbits\":[[0]]}";
}

/** A ghzRequest whose structural jobKey homes on `home` of `shards`. */
std::string
requestHomedOn(size_t home, size_t shards, size_t vnodes,
               const std::string& id)
{
    const HashRing ring(shards, vnodes);
    for (uint64_t seed = 1;; ++seed) {
        const std::string line = ghzRequest(id, 3, seed);
        const serve::WireRequest request = serve::parseRequest(line);
        if (ring.shardFor(serve::jobKey(request.spec)) == home) {
            return line;
        }
    }
}

/**
 * In-test remote shard: a real TCP listener speaking just enough of the
 * qassertd wire protocol for router tests — pongs with a configurable
 * queue depth, scripted refusals, scripted response swallowing — so the
 * TCP fleet path is testable without a daemon binary or real jobs.
 */
class FakeTcpShard
{
  public:
    struct Behavior
    {
        size_t queue_depth = 0;   ///< Reported in every pong.
        int refuse_first = 0;     ///< Refuse the first N run requests...
        ErrorCode refusal = ErrorCode::kQueueFull; ///< ...with this code.
        double retry_after_ms = 40.0;
        bool swallow_runs = false; ///< Accept runs, never answer them.
    };

    FakeTcpShard() : FakeTcpShard(Behavior()) {}

    explicit FakeTcpShard(Behavior behavior) : behavior_(behavior)
    {
        std::string error;
        listen_fd_ =
            net::tcpListen("127.0.0.1", 0, 8, &port_, &error);
        if (listen_fd_ < 0) {
            throw InternalError("FakeTcpShard listen failed: " + error);
        }
        accept_thread_ = std::thread([this] { acceptLoop(); });
    }

    ~FakeTcpShard() { stop(); }

    int port() const { return port_; }

    std::string
    endpoint() const
    {
        return "127.0.0.1:" + std::to_string(port_);
    }

    size_t
    connections()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return accepted_;
    }

    size_t
    runsSeen()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return runs_seen_;
    }

    /** Hard-drop every live connection (simulated shard crash/reset). */
    void
    dropConnections()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const int fd : live_fds_) net::shutdownBoth(fd);
    }

    void
    stop()
    {
        if (stopping_.exchange(true)) return;
        dropConnections();
        if (accept_thread_.joinable()) accept_thread_.join();
        std::vector<std::thread> workers;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            workers.swap(threads_);
        }
        for (std::thread& t : workers) t.join();
        net::closeQuiet(listen_fd_);
    }

  private:
    void
    acceptLoop()
    {
        while (!stopping_.load()) {
            const int fd = net::tcpAccept(listen_fd_, 50.0);
            if (fd == -2) break;
            if (fd < 0) continue;
            std::lock_guard<std::mutex> lock(mutex_);
            accepted_++;
            live_fds_.push_back(fd);
            threads_.emplace_back([this, fd] { serveConn(fd); });
        }
    }

    void
    serveConn(int fd)
    {
        net::LineReader reader(fd, size_t(1) << 20, 50.0);
        std::string line;
        for (;;) {
            const net::LineReader::Status status = reader.next(&line);
            if (status == net::LineReader::Status::kEof) break;
            if (status == net::LineReader::Status::kTimeout) {
                if (stopping_.load()) break;
                continue;
            }
            if (status != net::LineReader::Status::kOk) continue;
            handleLine(fd, line);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            live_fds_.erase(
                std::remove(live_fds_.begin(), live_fds_.end(), fd),
                live_fds_.end());
        }
        net::closeQuiet(fd);
    }

    void
    handleLine(int fd, const std::string& line)
    {
        std::string op;
        std::string id;
        try {
            const serve::JsonValue parsed = serve::JsonValue::parse(line);
            op = parsed.stringOr("op", "run");
            id = parsed.stringOr("id", "");
        } catch (const UserError&) {
            return;
        }
        std::string reply;
        if (op == "ping") {
            reply = serve::encodePing(id, behavior_.queue_depth, 0);
        } else if (op == "shutdown") {
            return; // remote daemons ignore fleet-scope shutdowns here
        } else {
            bool refuse = false;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                runs_seen_++;
                if (refusals_issued_ < behavior_.refuse_first) {
                    refusals_issued_++;
                    refuse = true;
                }
                if (behavior_.swallow_runs) return;
            }
            reply = refuse ? serve::encodeError(id, behavior_.refusal,
                                                "fake shard refusal",
                                                behavior_.retry_after_ms)
                           : "{\"id\":\"" + serve::jsonEscape(id) +
                                 "\",\"status\":\"ok\",\"fake\":true}";
        }
        reply += "\n";
        net::writeAllBounded(fd, reply.data(), reply.size(), 5000.0);
    }

    Behavior behavior_;
    int listen_fd_ = -1;
    int port_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread accept_thread_;
    std::mutex mutex_;
    std::vector<std::thread> threads_;
    std::vector<int> live_fds_;
    size_t accepted_ = 0;
    size_t runs_seen_ = 0;
    int refusals_issued_ = 0;
};

/** Fast probe/maintenance cadence for a remote (TCP) fake-shard fleet. */
RouterOptions
remoteOptions(const std::vector<std::string>& endpoints)
{
    RouterOptions options;
    options.connect = endpoints;
    options.probe_interval_ms = 30.0;
    options.maintenance_tick_ms = 5.0;
    options.respawn_backoff.base_backoff_ms = 20.0;
    options.respawn_backoff.max_backoff_ms = 50.0;
    return options;
}

// ---------------------------------------------------------- transport

TEST(TransportTest, PipeTransportEchoAndTerminate)
{
    PipeTransport cat({"/bin/cat"});
    EXPECT_FALSE(cat.remote());
    EXPECT_STREQ(cat.kindName(), "pipe");
    ASSERT_TRUE(cat.writeLine("over the pipe"));
    net::LineReader reader(cat.readFd());
    std::string line;
    ASSERT_EQ(reader.next(&line), net::LineReader::Status::kOk);
    EXPECT_EQ(line, "over the pipe");

    cat.terminate();
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kEof);
    EXPECT_TRUE(cat.finished());
}

TEST(TransportTest, TcpTransportRoundTripAgainstFakeShard)
{
    FakeTcpShard shard;
    TcpTransport::Options topts;
    TcpTransport tcp(net::parseEndpoint(shard.endpoint()), topts);
    ASSERT_TRUE(tcp.connected());
    EXPECT_TRUE(tcp.remote());
    EXPECT_STREQ(tcp.kindName(), "tcp");
    EXPECT_EQ(tcp.describe(), shard.endpoint());
    EXPECT_EQ(tcp.pid(), -1);

    ASSERT_TRUE(tcp.writeLine("{\"op\":\"ping\",\"id\":\"t1\"}"));
    net::LineReader reader(tcp.readFd());
    std::string line;
    ASSERT_EQ(reader.next(&line), net::LineReader::Status::kOk);
    EXPECT_NE(line.find("\"pong\":true"), std::string::npos) << line;

    // terminate() must unblock the reader with EOF (shutdown, not a
    // close racing the read) and latch finished().
    tcp.terminate();
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kEof);
    EXPECT_TRUE(tcp.finished());
    EXPECT_FALSE(tcp.writeLine("after death"));
}

TEST(TransportTest, FailedConnectIsImmediateEofNotAThrowOrHang)
{
    // Grab an ephemeral port, then close the listener: connecting to it
    // must now be refused.
    int port = 0;
    std::string error;
    const int probe = net::tcpListen("127.0.0.1", 0, 1, &port, &error);
    ASSERT_GE(probe, 0) << error;
    net::closeQuiet(probe);

    TcpTransport::Options topts;
    topts.connect_timeout_ms = 200.0;
    TcpTransport tcp(net::Endpoint{"127.0.0.1", port}, topts);
    EXPECT_FALSE(tcp.connected());
    EXPECT_TRUE(tcp.finished());
    EXPECT_FALSE(tcp.writeLine("never sent"));

    // The stand-in readFd must deliver EOF instantly — the exact shape
    // an exec failure has on the pipe path.
    net::LineReader reader(tcp.readFd());
    std::string line;
    EXPECT_EQ(reader.next(&line), net::LineReader::Status::kEof);
}

// ------------------------------------------------- router (fake shards)

TEST(RemoteRouterTest, RoutesOverTcpAndAnswersExactlyOnce)
{
    FakeTcpShard a;
    FakeTcpShard b;
    Collector collector;
    FleetRouter router(remoteOptions({a.endpoint(), b.endpoint()}),
                       collector.sink());
    router.start();
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(router.handleLine(
            ghzRequest("t" + std::to_string(i), 2 + i % 3, 40 + i)));
    }
    EXPECT_TRUE(router.drainFor(20000.0));
    ASSERT_TRUE(collector.waitForCount(8, 5000.0));
    router.stop();

    std::set<std::string> ids;
    for (const std::string& line : collector.snapshot()) {
        std::string id;
        ASSERT_TRUE(serve::peekResponseId(line, &id)) << line;
        EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos)
            << line;
        EXPECT_TRUE(ids.insert(id).second) << "duplicate for " << id;
    }
    EXPECT_EQ(ids.size(), 8u);
    EXPECT_EQ(router.counters().resolved_ok, 8u);
    EXPECT_EQ(a.runsSeen() + b.runsSeen(), 8u);
    EXPECT_EQ(router.shardStatus(0).transport, "tcp");
    EXPECT_EQ(router.shardStatus(0).attachment, a.endpoint());
}

/** What one job saw when its home shard answered its first run with `code`. */
struct FirstReplyOutcome
{
    std::string line;    ///< The one response delivered to the client.
    size_t home_runs = 0;
    size_t sibling_runs = 0;
    FleetCounters counters;
};

FirstReplyOutcome
routeAgainstFirstReply(ErrorCode code)
{
    FakeTcpShard::Behavior refusing;
    refusing.refuse_first = 1;
    refusing.refusal = code;
    refusing.retry_after_ms = 30.0;
    FakeTcpShard home(refusing);
    FakeTcpShard sibling;
    RouterOptions options =
        remoteOptions({home.endpoint(), sibling.endpoint()});
    options.retry.max_attempts = 3;
    Collector collector;
    FleetRouter router(options, collector.sink());
    router.start();

    EXPECT_TRUE(router.handleLine(
        requestHomedOn(0, 2, options.vnodes, "affine")));
    EXPECT_TRUE(router.drainFor(20000.0));
    EXPECT_TRUE(collector.waitForCount(1, 5000.0));
    router.stop();

    FirstReplyOutcome outcome;
    const std::vector<std::string> lines = collector.snapshot();
    EXPECT_EQ(lines.size(), 1u);
    if (!lines.empty()) outcome.line = lines[0];
    outcome.home_runs = home.runsSeen();
    outcome.sibling_runs = sibling.runsSeen();
    outcome.counters = router.counters();
    return outcome;
}

TEST(RemoteRouterTest, ShedThenRetryLandsOnTheSameShard)
{
    // A queue_full refusal is saturation, not failure — after the
    // shard's retry_after_ms hint (propagated over TCP like over pipes)
    // the retry must land on the *same* shard, keeping cache affinity.
    const FirstReplyOutcome outcome =
        routeAgainstFirstReply(ErrorCode::kQueueFull);
    const std::string& line = outcome.line;
    EXPECT_NE(line.find("\"id\":\"affine\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;
    EXPECT_EQ(outcome.home_runs, 2u);    // refused once, then served
    EXPECT_EQ(outcome.sibling_runs, 0u); // affinity never leaked away
    EXPECT_EQ(outcome.counters.retried, 1u);
}

TEST(RemoteRouterTest, GenericErrorIsDeliveredAfterOneDispatch)
{
    // A generic error comes from running the job, which would fail the
    // same way anywhere: the router delivers it instead of re-running
    // the job on a sibling.
    const FirstReplyOutcome outcome =
        routeAgainstFirstReply(ErrorCode::kGeneric);
    const std::string& line = outcome.line;
    EXPECT_NE(line.find("\"id\":\"affine\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"code\":\"generic\""), std::string::npos)
        << line;
    EXPECT_EQ(outcome.home_runs, 1u);
    EXPECT_EQ(outcome.sibling_runs, 0u);
    EXPECT_EQ(outcome.counters.retried, 0u);
    EXPECT_EQ(outcome.counters.resolved_error, 1u);
}

TEST(RemoteRouterTest, DroppedConnectionReconnectsAndRestoresAffinity)
{
    FakeTcpShard home;
    FakeTcpShard sibling;
    RouterOptions options =
        remoteOptions({home.endpoint(), sibling.endpoint()});
    Collector collector;
    FleetRouter router(options, collector.sink());
    router.start();

    const std::string line =
        requestHomedOn(0, 2, options.vnodes, "sticky");
    EXPECT_TRUE(router.handleLine(line));
    EXPECT_TRUE(router.drainFor(20000.0));
    EXPECT_EQ(home.runsSeen(), 1u);
    const uint64_t generation_before = router.shardStatus(0).generation;

    // Hard-drop the shard's connection: the router must observe EOF,
    // re-dial with a fresh generation, and probe the shard back to kUp.
    home.dropConnections();
    bool recovered = false;
    for (int i = 0; i < 1000; ++i) {
        const ShardStatus status = router.shardStatus(0);
        if (status.respawns >= 1 && status.alive &&
            status.generation > generation_before &&
            status.health == ShardHealth::kUp) {
            recovered = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    {
        const ShardStatus s = router.shardStatus(0);
        ASSERT_TRUE(recovered)
            << "shard 0 never reconnected: respawns=" << s.respawns
            << " alive=" << s.alive << " gen=" << s.generation
            << " health=" << int(s.health)
            << " pings_ok=" << s.pings_ok
            << " pings_failed=" << s.pings_failed
            << " down_transitions=" << s.down_transitions
            << " conns=" << home.connections();
    }
    EXPECT_GE(home.connections(), 2u);

    // Same structural key routes to its old home over the new
    // connection — affinity is by construction, not by bookkeeping.
    EXPECT_TRUE(router.handleLine(line));
    EXPECT_TRUE(router.drainFor(20000.0));
    router.stop();
    EXPECT_EQ(home.runsSeen(), 2u);
    EXPECT_EQ(sibling.runsSeen(), 0u);
    EXPECT_EQ(router.counters().resolved_ok, 2u);
}

TEST(RemoteRouterTest, EofClearsPendingAliasesExactlyOnce)
{
    // Satellite: a job in flight on a shard whose socket dies must be
    // resolved exactly once through the EOF path — with no other shard
    // to fail over to and respawn off, that is one typed error line.
    FakeTcpShard::Behavior mute;
    mute.swallow_runs = true;
    FakeTcpShard shard(mute);
    RouterOptions options = remoteOptions({shard.endpoint()});
    options.respawn = false;
    options.retry.max_attempts = 2;
    Collector collector;
    FleetRouter router(options, collector.sink());
    router.start();

    EXPECT_TRUE(router.handleLine(ghzRequest("doomed", 2, 7)));
    // Let it dispatch (and be swallowed), then kill the connection.
    for (int i = 0; i < 500 && shard.runsSeen() == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(shard.runsSeen(), 1u);
    shard.dropConnections();

    EXPECT_TRUE(router.drainFor(20000.0));
    ASSERT_TRUE(collector.waitForCount(1, 5000.0));
    router.stop();

    const std::vector<std::string> lines = collector.snapshot();
    ASSERT_EQ(lines.size(), 1u); // exactly once, not zero, not twice
    EXPECT_NE(lines[0].find("\"id\":\"doomed\""), std::string::npos)
        << lines[0];
    EXPECT_NE(lines[0].find("no_shard_available"), std::string::npos)
        << lines[0];
    EXPECT_EQ(router.counters().no_shard, 1u);
}

TEST(RemoteRouterTest, PongQueueDepthReachesFleetStatus)
{
    // A pong's queue depth is telemetry: it must surface in
    // shardStatus and in the fleet_status line, and placement must not
    // react to it — every job still resolves ok exactly once.
    FakeTcpShard::Behavior loaded;
    loaded.queue_depth = 100;
    FakeTcpShard busy(loaded);
    FakeTcpShard idle_a;
    FakeTcpShard idle_b;
    Collector collector;
    FleetRouter router(remoteOptions({busy.endpoint(), idle_a.endpoint(),
                                      idle_b.endpoint()}),
                       collector.sink());
    router.start();

    bool reported = false;
    for (int i = 0; i < 1000; ++i) {
        if (router.shardStatus(0).queue_depth == 100.0) {
            reported = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(reported) << "pong queue depth never reached shardStatus";
    EXPECT_EQ(router.shardStatus(1).queue_depth, 0.0);
    const std::string status = router.fleetStatusJson("st");
    EXPECT_NE(status.find("\"queue_depth\":100"), std::string::npos)
        << status;

    for (int i = 0; i < 20; ++i) {
        EXPECT_TRUE(router.handleLine(
            ghzRequest("s" + std::to_string(i), 2 + i % 3, 900 + i)));
    }
    EXPECT_TRUE(router.drainFor(20000.0));
    ASSERT_TRUE(collector.waitForCount(20, 5000.0));
    router.stop();

    std::set<std::string> ids;
    for (const std::string& line : collector.snapshot()) {
        std::string id;
        ASSERT_TRUE(serve::peekResponseId(line, &id)) << line;
        EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos)
            << line;
        EXPECT_TRUE(ids.insert(id).second) << "duplicate for " << id;
    }
    EXPECT_EQ(ids.size(), 20u);
    EXPECT_EQ(router.counters().resolved_ok, 20u);
    EXPECT_EQ(busy.runsSeen() + idle_a.runsSeen() + idle_b.runsSeen(), 20u);
}

// ---------------------------------------------- router (real qassertd)

#ifdef QA_QASSERTD_BIN

RouterOptions
fastOptions(size_t shards)
{
    RouterOptions options;
    options.shards = shards;
    options.shard_command = {QA_QASSERTD_BIN, "--workers", "1"};
    options.probe_interval_ms = 50.0;
    options.maintenance_tick_ms = 5.0;
    return options;
}

TEST(RouterTest, RoutesJobsAndAnswersWithClientIds)
{
    Collector collector;
    FleetRouter router(fastOptions(2), collector.sink());
    router.start();
    for (int i = 0; i < 6; ++i) {
        EXPECT_TRUE(router.handleLine(
            ghzRequest("job-" + std::to_string(i), 2 + i % 3, 100 + i)));
    }
    EXPECT_TRUE(router.drainFor(20000.0));
    ASSERT_TRUE(collector.waitForCount(6, 5000.0));
    router.stop();

    std::set<std::string> ids;
    for (const std::string& line : collector.snapshot()) {
        std::string id;
        ASSERT_TRUE(serve::peekResponseId(line, &id)) << line;
        EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos)
            << line;
        ids.insert(id);
    }
    EXPECT_EQ(ids.size(), 6u); // every client id answered exactly once
    const FleetCounters counters = router.counters();
    EXPECT_EQ(counters.admitted, 6u);
    EXPECT_EQ(counters.resolved_ok, 6u);
}

/** A run request forcing the stabilizer backend onto a non-Clifford `t`. */
std::string
stabilizerOnTRequest(const std::string& id, uint64_t seed)
{
    const std::string qasm = "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n"
                             "h q[0];\nt q[0];\nmeasure q[0] -> c[0];\n";
    return "{\"id\":\"" + id + "\",\"qasm\":\"" + serve::jsonEscape(qasm) +
           "\",\"shots\":16,\"seed\":" + std::to_string(seed) +
           ",\"backend\":\"stabilizer\"}";
}

TEST(RouterTest, ClientErrorsNeverQuarantineHealthyShards)
{
    // A job the backend cannot run is the client's mistake, not a sick
    // shard: each one is answered bad_request after one dispatch, and
    // a valid job sent after 40 of them still runs.
    Collector collector;
    FleetRouter router(fastOptions(2), collector.sink());
    router.start();
    constexpr size_t kBad = 40;
    for (size_t i = 0; i < kBad; ++i) {
        EXPECT_TRUE(router.handleLine(
            stabilizerOnTRequest("bad-" + std::to_string(i), 1 + i)));
        ASSERT_TRUE(collector.waitForCount(i + 1, 10000.0));
    }
    EXPECT_TRUE(router.handleLine(ghzRequest("valid", 3, 7)));
    EXPECT_TRUE(router.drainFor(20000.0));
    ASSERT_TRUE(collector.waitForCount(kBad + 1, 5000.0));
    router.stop();

    const std::vector<std::string> lines = collector.snapshot();
    for (size_t i = 0; i < kBad; ++i) {
        EXPECT_NE(lines[i].find("\"code\":\"bad_request\""),
                  std::string::npos)
            << lines[i];
    }
    EXPECT_NE(lines[kBad].find("\"id\":\"valid\""), std::string::npos)
        << lines[kBad];
    EXPECT_NE(lines[kBad].find("\"status\":\"ok\""), std::string::npos)
        << lines[kBad];
    const FleetCounters counters = router.counters();
    EXPECT_EQ(counters.retried, 0u);
    EXPECT_EQ(counters.no_shard, 0u);
    EXPECT_EQ(router.shardStatus(0).forwarded + router.shardStatus(1).forwarded,
              uint64_t(kBad + 1)); // one dispatch per job
}

TEST(RouterTest, AllShardsDownIsATypedErrorNotAHang)
{
    RouterOptions options;
    options.shards = 2;
    options.shard_command = {"/bin/false"}; // exits instantly, no wire
    options.respawn = false;
    options.retry.max_attempts = 2;
    options.maintenance_tick_ms = 5.0;
    Collector collector;
    FleetRouter router(options, collector.sink());
    router.start();
    EXPECT_TRUE(router.handleLine(ghzRequest("doomed", 2, 1)));
    EXPECT_TRUE(router.drainFor(10000.0));
    ASSERT_TRUE(collector.waitForCount(1, 5000.0));
    router.stop();

    const std::string line = collector.snapshot()[0];
    EXPECT_NE(line.find("\"id\":\"doomed\""), std::string::npos) << line;
    EXPECT_NE(line.find("no_shard_available"), std::string::npos) << line;
    EXPECT_EQ(router.counters().no_shard, 1u);
}

TEST(RouterTest, KilledShardFailsOverAndNothingIsLost)
{
    RouterOptions options = fastOptions(3);
    options.respawn = false; // keep the post-kill topology fixed
    Collector collector;
    FleetRouter router(options, collector.sink());
    router.start();

    // Load the fleet, then SIGKILL one shard while jobs are in flight.
    const int jobs = 30;
    for (int i = 0; i < jobs; ++i) {
        EXPECT_TRUE(router.handleLine(
            ghzRequest("k" + std::to_string(i), 2 + i % 4, 500 + i)));
        if (i == 5) {
            const pid_t victim = router.shardStatus(1).pid;
            ASSERT_GT(victim, 0);
            ::kill(victim, SIGKILL);
        }
    }
    EXPECT_TRUE(router.drainFor(30000.0));
    ASSERT_TRUE(collector.waitForCount(size_t(jobs), 5000.0));
    router.stop();

    // Exactly-once at fleet scope: every id answered once, all ok
    // (failover re-executes deterministically; nothing lost, nothing
    // doubled).
    std::set<std::string> ids;
    for (const std::string& line : collector.snapshot()) {
        std::string id;
        ASSERT_TRUE(serve::peekResponseId(line, &id)) << line;
        EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos)
            << line;
        EXPECT_TRUE(ids.insert(id).second)
            << "duplicate response for " << id;
    }
    EXPECT_EQ(ids.size(), size_t(jobs));
    EXPECT_EQ(router.counters().resolved_ok, uint64_t(jobs));
    EXPECT_EQ(router.shardStatus(1).health, ShardHealth::kDown);
}

TEST(RouterTest, RespawnRestoresAffinityAfterAFlap)
{
    RouterOptions options = fastOptions(2);
    options.respawn_backoff.base_backoff_ms = 20.0;
    options.respawn_backoff.max_backoff_ms = 50.0;
    Collector collector;
    FleetRouter router(options, collector.sink());
    router.start();

    // Pick a request whose structural key homes on shard 0: the ring
    // in the router uses the same deterministic layout as a local one.
    const HashRing ring(2, options.vnodes);
    std::string line;
    size_t home = 0;
    for (uint64_t seed = 1;; ++seed) {
        line = ghzRequest("affinity", 3, seed);
        const serve::WireRequest request = serve::parseRequest(line);
        home = ring.shardFor(serve::jobKey(request.spec));
        if (home == 0) break;
    }

    EXPECT_TRUE(router.handleLine(line));
    EXPECT_TRUE(router.drainFor(20000.0));
    const uint64_t before = router.shardStatus(0).forwarded;
    EXPECT_GE(before, 1u);

    // Kill the home shard and wait for the full flap: death detected,
    // respawned, pinged back to kUp.
    ::kill(router.shardStatus(0).pid, SIGKILL);
    bool recovered = false;
    for (int i = 0; i < 1000; ++i) {
        const ShardStatus status = router.shardStatus(0);
        if (status.respawns >= 1 && status.alive &&
            status.health == ShardHealth::kUp) {
            recovered = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(recovered) << "shard 0 never recovered from the flap";
    EXPECT_GE(router.shardStatus(0).down_transitions, 1u);

    // The same structural key routes to its old home again.
    EXPECT_TRUE(router.handleLine(line));
    EXPECT_TRUE(router.drainFor(20000.0));
    router.stop();
    EXPECT_EQ(router.shardStatus(0).forwarded, before + 1);
    EXPECT_EQ(router.counters().resolved_ok, 2u);
}

#else // !QA_QASSERTD_BIN

TEST(RouterTest, DISABLED_NeedsQassertdBinary) { GTEST_SKIP(); }

#endif

} // namespace
} // namespace fleet
} // namespace qa
