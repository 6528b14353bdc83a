/**
 * @file
 * FleetRouter: the multi-process front-end behind the qa_router binary.
 *
 * Topology: the router attaches N qassertd shards — fork/exec'd
 * children on pipes, or remote `qassertd --listen` daemons over TCP
 * (fleet/transport.hpp; both NDJSON) — consistent-hashes each admitted
 * job's 128-bit structural jobKey onto the shard ring (serve-layer
 * cache affinity for free: the same circuit structure always lands on
 * the same shard while it is up), and multiplexes responses back to
 * the client, rewriting its per-dispatch alias ids back to the
 * client's ids.
 *
 * Robustness contract (DESIGN.md Sec. 13):
 *  - **Health from liveness alone**: a maintenance thread wire-pings
 *    every shard each probe interval; ping timeouts, write failures,
 *    unparseable lines and process exit drive the per-shard
 *    up/degraded/down state machine (fleet/health.hpp). A job's own
 *    outcome never does: an error reply is a fact about the program
 *    the client sent, and the same job fails the same way on any shard.
 *  - **Failover**: a down shard's keyspace re-hashes to its ring
 *    successors (fleet/ring.hpp); jobs in flight on a dead shard are
 *    resubmitted to the next live shard. Recovery restores affinity by
 *    construction.
 *  - **Refusals only are redispatched** (resilience/retry.hpp): a shard
 *    that refused a job without running it (queue_full,
 *    service_stopped) sees it again after a counter-based jittered
 *    backoff — also honouring the shard's own retry_after_ms hint —
 *    bounded by the attempt budget and the job's deadline. Every other
 *    reply, `generic` included, is delivered as it is: the job ran, and
 *    running it again would only repeat its result.
 *  - **One outstanding dispatch**: a job is in flight on at most one
 *    shard at a time; failover, retry and park all clear it before the
 *    next dispatch is issued (PendingJob::awaiting is a single slot).
 *  - **Exactly-once**: every admitted job resolves to the client
 *    exactly once, through any combination of shard crash, respawn,
 *    and redispatch (fleet/pending.hpp is the single resolution point).
 *  - **All shards down** is a typed kNoShardAvailable error after the
 *    retry budget, never a hang.
 *
 * Remote-fleet additions (DESIGN.md Sec. 15):
 *  - **Reconnect with generation guards**: a dead TCP attachment is
 *    re-dialed on the respawn backoff schedule; each attachment is a
 *    new generation, and responses tagged with a stale generation can
 *    never resolve a job (they count as strays). A reconnected shard
 *    therefore cannot resurrect aliases that already failed over.
 *  - **Bounded socket I/O**: connect, write, and idle-read timeouts on
 *    the TCP path; a wedged remote (partition, slow-loris) surfaces as
 *    a read timeout or health-down, after which the router tears the
 *    connection down itself so the ordinary EOF death path (failover +
 *    backoff reconnect) runs.
 *  - **Pong telemetry**: each pong's queue depth and the probe RTT are
 *    reported per shard in fleet_status. Placement does not read them:
 *    every job walks its fixed ring chain.
 *
 * Threads: the caller's admission thread (handleLine), one reader
 * thread per live shard, and one maintenance thread (probes, backoff
 * releases, respawns/reconnects). One router mutex guards all
 * shared state; shard writes take only the per-transport write mutex.
 */
#ifndef QA_FLEET_ROUTER_HPP
#define QA_FLEET_ROUTER_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/net.hpp"
#include "fleet/health.hpp"
#include "fleet/pending.hpp"
#include "fleet/process.hpp"
#include "fleet/ring.hpp"
#include "fleet/transport.hpp"
#include "resilience/retry.hpp"

namespace qa
{
namespace fleet
{

/** Fleet sizing and behaviour knobs. */
struct RouterOptions
{
    /** argv used to spawn each shard (binary + flags, no journal). */
    std::vector<std::string> shard_command;

    /**
     * Remote shards: one "host:port" per shard, each a running
     * `qassertd --listen` daemon. Non-empty switches the whole fleet to
     * TCP transports — `shards` becomes connect.size(), shard_command
     * is unused, and "respawn" means reconnect (the router never owns
     * a remote daemon's lifetime, so stop() closes connections without
     * sending the daemons a shutdown).
     */
    std::vector<std::string> connect;

    size_t shards = 3;

    /** Ring vnodes per shard. */
    size_t vnodes = 64;

    /** TCP transport bounds (connect / write / idle-read). */
    TcpTransport::Options tcp;

    /**
     * When set, shard i of generation g journals to
     * `<journal_dir>/shard-<i>.g<g>.ndjson`. Fresh file per respawn so
     * every journal replays standalone (seq numbers restart per
     * process).
     */
    std::string journal_dir;

    /** Wire-ping cadence per shard. */
    double probe_interval_ms = 250.0;

    /** Unanswered-ping bound; past it the probe counts as a failure. */
    double ping_timeout_ms = 2000.0;

    /** Maintenance loop tick. */
    double maintenance_tick_ms = 10.0;

    /** Respawn dead shards (with backoff); off leaves them down. */
    bool respawn = true;

    /** Refusal redispatch and park sizing (attempts, jittered backoff). */
    resilience::RetryOptions retry;

    /** Respawn backoff sizing (slower than job retries). */
    resilience::RetryOptions respawn_backoff;

    /** Health state-machine thresholds. */
    HealthOptions health;

    /** Bound on client and shard line lengths. */
    size_t max_line = size_t(1) << 20;

    RouterOptions()
    {
        respawn_backoff.base_backoff_ms = 50.0;
        respawn_backoff.max_backoff_ms = 2000.0;
    }
};

/** Fleet-wide monotonic counters (one consistent snapshot). */
struct FleetCounters
{
    uint64_t admitted = 0;       ///< Jobs accepted for routing.
    uint64_t resolved_ok = 0;    ///< Responses delivered with status ok.
    uint64_t resolved_error = 0; ///< Error responses delivered.
    uint64_t rejected = 0;       ///< Malformed requests refused at the edge.
    uint64_t retried = 0;        ///< Fleet-level redispatches after refusals.
    uint64_t failovers = 0;      ///< Jobs resubmitted off a dead shard.
    uint64_t strays = 0;         ///< Late/duplicate shard responses dropped.
    uint64_t no_shard = 0;       ///< Jobs failed kNoShardAvailable.
};

/** Point-in-time view of one shard (fleet_status, tests). */
struct ShardStatus
{
    int index = 0;
    pid_t pid = -1;
    bool alive = false;
    uint64_t generation = 0;
    ShardHealth health = ShardHealth::kUp;
    uint64_t forwarded = 0;
    uint64_t responses = 0;
    uint64_t errors = 0;
    uint64_t pings_ok = 0;
    uint64_t pings_failed = 0;
    uint64_t respawns = 0;
    uint64_t down_transitions = 0;
    double last_rtt_ms = 0.0;
    std::string transport;  ///< "pipe" or "tcp".
    std::string attachment; ///< "pid 1234" / "127.0.0.1:9001".
    double queue_depth = 0.0; ///< Last pong-reported queue depth.
};

class FleetRouter
{
  public:
    /** Sink for client-facing response lines (no trailing newline). */
    using Emit = std::function<void(const std::string&)>;

    FleetRouter(RouterOptions options, Emit emit);

    /** stop()s: drains nothing by itself — call drainFor first. */
    ~FleetRouter();

    FleetRouter(const FleetRouter&) = delete;
    FleetRouter& operator=(const FleetRouter&) = delete;

    /** Spawn the shards, their readers, and the maintenance thread. */
    void start();

    /**
     * Process one client request line. Returns false when the line was
     * a shutdown request (the caller then drains and stops); every
     * other outcome — including malformed input, which is answered
     * with a typed error — returns true.
     */
    bool handleLine(const std::string& line);

    /**
     * Wait up to `timeout_ms` for every admitted job to resolve.
     * True when the pending table emptied.
     */
    bool drainFor(double timeout_ms);

    /**
     * Stop admission, ask the shards to drain (wire shutdown + stdin
     * EOF, bounded by `shard_grace_ms`, then SIGKILL), join readers and
     * the maintenance thread, and fail any still-pending job with
     * kServiceStopped. Idempotent.
     */
    void stop(double shard_grace_ms = 3000.0);

    size_t shards() const { return options_.shards; }
    FleetCounters counters() const;
    ShardStatus shardStatus(size_t index) const;

    /** The fleet_status response line (also answers op "metrics"). */
    std::string fleetStatusJson(const std::string& id) const;

  private:
    struct Shard
    {
        std::unique_ptr<ShardTransport> transport;
        std::thread reader;
        uint64_t generation = 0;
        bool alive = false;
        HealthTracker health;

        bool ping_outstanding = false;
        std::string ping_id;
        uint64_t ping_seq = 0;
        std::chrono::steady_clock::time_point ping_sent;
        std::chrono::steady_clock::time_point last_probe;
        double last_rtt_ms = 0.0;

        int respawn_attempts = 0;
        std::chrono::steady_clock::time_point next_respawn;

        uint64_t forwarded = 0;
        uint64_t responses = 0;
        uint64_t errors = 0;
        uint64_t pings_ok = 0;
        uint64_t pings_failed = 0;
        uint64_t respawns = 0;

        /**
         * Probe failures observed on the *current* attachment (reset at
         * spawn/reconnect). The remote health-down teardown keys on
         * this, not on the sticky HealthTracker state: a reconnected
         * shard whose health is still recovering from the previous
         * generation's death must get a chance to pong before the
         * maintenance loop may recycle its brand-new connection.
         */
        uint64_t attachment_ping_failures = 0;

        double queue_depth = 0.0; ///< Last pong-reported queue depth.
    };

    std::vector<std::string> shardArgv(size_t index,
                                       uint64_t generation) const;
    std::unique_ptr<ShardTransport> makeTransport(size_t index,
                                                  uint64_t generation) const;
    void spawnShardLocked(size_t index);
    void readerLoop(size_t index, uint64_t generation, int fd,
                    double idle_timeout_ms);
    void onShardLine(size_t index, uint64_t generation,
                     const std::string& line);
    void onShardExit(size_t index, uint64_t generation);
    void onReaderTimeout(size_t index, uint64_t generation);
    void handlePongLocked(size_t index, const std::string& alias,
                          double queue_depth);

    /**
     * Issue the one outstanding dispatch of `job` (which must have none)
     * to the first admitting shard on its chain. When no shard takes it
     * the job is parked for a backoff retry or — budget exhausted —
     * resolved with kNoShardAvailable.
     */
    void dispatchLocked(const PendingPtr& job);
    void parkOrFailLocked(const PendingPtr& job);
    void resolveLocked(const PendingPtr& job, const std::string& line,
                       bool ok);
    void maintenanceLoop();
    void maintenanceTickLocked();
    std::string fleetStatusLocked(const std::string& id) const;

    void emitLine(const std::string& line);

    RouterOptions options_;
    Emit emit_;
    const HashRing ring_;
    std::vector<net::Endpoint> endpoints_; ///< Non-empty: TCP fleet.

    mutable std::mutex mutex_;
    std::condition_variable idle_cv_;  ///< Pending resolutions.
    std::condition_variable tick_cv_;  ///< Maintenance stop wakeups.
    std::vector<std::unique_ptr<Shard>> shards_;
    PendingTable pending_;
    FleetCounters counters_;
    bool draining_ = false;
    bool stopped_ = false;
    bool started_ = false;

    std::thread maintenance_;
    std::mutex emit_mutex_;
};

} // namespace fleet
} // namespace qa

#endif // QA_FLEET_ROUTER_HPP
