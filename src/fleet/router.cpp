#include "fleet/router.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "common/error.hpp"
#include "serve/job.hpp"
#include "serve/wire.hpp"

namespace qa
{
namespace fleet
{

namespace
{

std::chrono::steady_clock::duration
durationMs(double ms)
{
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
}

/**
 * Shard error codes the fleet is allowed to redispatch: the refusals a
 * shard answers without running the job — queue_full (the shard is
 * healthy but saturated) and service_stopped (the shard is draining; a
 * sibling is not). Every other error, `generic` included, comes from
 * running the job, which is a pure function of its spec: it would fail
 * identically on every shard, so it is delivered as it is.
 */
bool
fleetRetryableCode(const std::string& name)
{
    return name == "queue_full" || name == "service_stopped";
}

/** Swap the quoted alias id in a shard response for the client's id. */
std::string
rewriteResponseId(const std::string& line, const std::string& alias,
                  const std::string& client_id)
{
    const std::string needle = "\"" + alias + "\"";
    const size_t pos = line.find(needle);
    if (pos == std::string::npos) return line;
    std::string out = line;
    out.replace(pos, needle.size(),
                "\"" + serve::jsonEscape(client_id) + "\"");
    return out;
}

} // namespace

FleetRouter::FleetRouter(RouterOptions options, Emit emit)
    : options_(std::move(options)), clock_(resolveClock(options_.clock)),
      emit_(std::move(emit)),
      ring_(options_.connect.empty()
                ? (options_.shards == 0 ? 1 : options_.shards)
                : options_.connect.size(),
            options_.vnodes)
{
    if (!options_.connect.empty()) {
        // TCP fleet: one shard per endpoint; the daemons already run.
        options_.shards = options_.connect.size();
        endpoints_.reserve(options_.connect.size());
        for (const std::string& text : options_.connect) {
            endpoints_.push_back(net::parseEndpoint(text));
        }
    } else {
        QA_REQUIRE(!options_.shard_command.empty(),
                   "fleet needs a shard command or endpoints to connect");
    }
    QA_REQUIRE(options_.shards > 0, "fleet needs at least one shard");
    shards_.reserve(options_.shards);
    for (size_t i = 0; i < options_.shards; ++i) {
        auto shard = std::make_unique<Shard>();
        shard->health = HealthTracker(options_.health);
        shards_.push_back(std::move(shard));
    }
}

FleetRouter::~FleetRouter()
{
    stop();
}

std::vector<std::string>
FleetRouter::shardArgv(size_t index, uint64_t generation) const
{
    std::vector<std::string> argv = options_.shard_command;
    if (!options_.journal_dir.empty()) {
        argv.push_back("--journal");
        // Generation-suffixed so a respawned shard gets a fresh file:
        // qassertd journal seqs restart at 0 per process, and appending
        // two processes' records to one file would break replay.
        argv.push_back(options_.journal_dir + "/shard-" +
                       std::to_string(index) + ".g" +
                       std::to_string(generation) + ".ndjson");
    }
    return argv;
}

std::unique_ptr<ShardTransport>
FleetRouter::makeTransport(size_t index, uint64_t generation) const
{
    if (index < endpoints_.size()) {
        // A failed connect still yields a transport — one that EOFs on
        // first read, so the reconnect backoff runs through the same
        // death path as a crashed child.
        return std::make_unique<TcpTransport>(endpoints_[index],
                                              options_.tcp);
    }
    return std::make_unique<PipeTransport>(shardArgv(index, generation));
}

void
FleetRouter::spawnShardLocked(size_t index)
{
    Shard& shard = *shards_[index];
    shard.generation++;
    shard.transport = makeTransport(index, shard.generation);
    shard.alive = true;
    shard.ping_outstanding = false;
    shard.attachment_ping_failures = 0;
    // Probe soon: recovery needs recover_threshold pongs.
    shard.last_probe = clock_.now() - durationMs(options_.probe_interval_ms);
    const uint64_t generation = shard.generation;
    const int fd = shard.transport->readFd();
    const double idle_ms = shard.transport->readIdleTimeoutMs();
    shard.reader = std::thread([this, index, generation, fd, idle_ms] {
        readerLoop(index, generation, fd, idle_ms);
    });
}

void
FleetRouter::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    QA_REQUIRE(!started_, "fleet router already started");
    started_ = true;
    if (!options_.journal_dir.empty()) {
        // Shards open their journal at exec and exit if the directory
        // is missing — which would take the whole fleet down before the
        // first job. Create it here instead of pushing that onto every
        // operator.
        std::error_code ec;
        std::filesystem::create_directories(options_.journal_dir, ec);
        QA_REQUIRE(!ec, "cannot create journal dir '" +
                            options_.journal_dir + "': " + ec.message());
    }
    for (size_t i = 0; i < shards_.size(); ++i) spawnShardLocked(i);
    maintenance_ = std::thread([this] { maintenanceLoop(); });
}

void
FleetRouter::readerLoop(size_t index, uint64_t generation, int fd,
                        double idle_timeout_ms)
{
    net::LineReader reader(fd, options_.max_line, idle_timeout_ms);
    std::string line;
    for (;;) {
        const net::LineReader::Status status = reader.next(&line);
        if (status == net::LineReader::Status::kEof) {
            onShardExit(index, generation);
            return;
        }
        if (status == net::LineReader::Status::kOverflow) {
            std::lock_guard<std::mutex> lock(mutex_);
            shards_[index]->health.onFailure();
            continue;
        }
        if (status == net::LineReader::Status::kTimeout) {
            // The peer went silent past the idle bound (blackholed
            // socket, wedged daemon). Tear the attachment down; the
            // loop then observes EOF and runs the full death path.
            onReaderTimeout(index, generation);
            continue;
        }
        onShardLine(index, generation, line);
    }
}

void
FleetRouter::onReaderTimeout(size_t index, uint64_t generation)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Shard& shard = *shards_[index];
    if (shard.generation != generation || !shard.transport) return;
    shard.health.onFailure();
    shard.transport->terminate();
}

void
FleetRouter::handlePongLocked(size_t index, const std::string& alias,
                              double queue_depth)
{
    Shard& shard = *shards_[index];
    if (shard.ping_outstanding && shard.ping_id == alias) {
        shard.ping_outstanding = false;
        shard.pings_ok++;
        shard.last_rtt_ms = clock_.elapsedMs(shard.ping_sent);
        shard.queue_depth = queue_depth;
    }
    // Even a late pong (its probe already counted as a timeout) proves
    // the shard is answering — and resets the attachment failure streak
    // the remote teardown path keys on.
    shard.attachment_ping_failures = 0;
    shard.health.onSuccess();
}

void
FleetRouter::onShardLine(size_t index, uint64_t generation,
                         const std::string& line)
{
    std::string alias;
    if (!serve::peekResponseId(line, &alias)) {
        // Not a line any of our encoders produced; full parse for the id.
        try {
            alias = serve::requestId(serve::JsonValue::parse(line));
        } catch (const UserError&) {
            std::lock_guard<std::mutex> lock(mutex_);
            shards_[index]->health.onFailure();
            return;
        }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    Shard& shard = *shards_[index];
    const bool current = shard.generation == generation;

    if (alias.rfind("!p", 0) == 0) {
        if (current) {
            double queue_depth = shard.queue_depth;
            try {
                const serve::JsonValue parsed =
                    serve::JsonValue::parse(line);
                queue_depth = parsed.numberOr("queue_depth", queue_depth);
            } catch (const UserError&) {
                // Malformed pong still proves liveness; keep old depth.
            }
            handlePongLocked(index, alias, queue_depth);
        }
        return;
    }

    if (!current) {
        // Generation guard: a line surfacing from a superseded
        // attachment (reconnected TCP shard replaying buffered output,
        // zombie child flushing its pipe) must never resolve a job —
        // its aliases already failed over to the current generation.
        counters_.strays++;
        return;
    }

    shard.responses++;
    const PendingPtr job = pending_.find(alias);
    if (!job) {
        // Post-failover duplicate or stale-generation flush: the job
        // already resolved through another alias.
        counters_.strays++;
        return;
    }

    // Any well-formed response proves the shard is answering.
    shard.health.onSuccess();

    // Classify: error lines may be redispatched instead of delivered.
    bool is_error = false;
    std::string code_name;
    double retry_after_ms = 0.0;
    try {
        const serve::JsonValue parsed = serve::JsonValue::parse(line);
        is_error = parsed.stringOr("status", "ok") == "error";
        if (is_error) {
            code_name = parsed.stringOr("code", "generic");
            retry_after_ms = parsed.numberOr("retry_after_ms", 0.0);
        }
    } catch (const UserError&) {
        shard.health.onFailure();
        counters_.strays++;
        return;
    }

    if (is_error) shard.errors++;

    if (is_error && fleetRetryableCode(code_name) && !draining_) {
        job->awaiting.reset(); // this dispatch is spent

        // queue_full is saturation, not failure: rewind placement one
        // step so the retry lands on the same shard once it recovers,
        // keeping the job's cache affinity. A draining shard
        // (service_stopped) keeps the advanced cursor and the job fails
        // over down the chain.
        if (code_name == "queue_full" && job->next_chain > 0) {
            job->next_chain--;
        }

        const double spent = clock_.elapsedMs(job->admitted);
        if (job->dispatches < options_.retry.max_attempts) {
            double backoff = resilience::retryBackoffMs(
                options_.retry, job->seq, job->dispatches);
            // Honour the shard's own estimate when it is the larger.
            if (retry_after_ms > backoff) backoff = retry_after_ms;
            if (job->deadline_ms <= 0.0 ||
                spent + backoff < job->deadline_ms) {
                job->parked = true;
                job->release = clock_.now() + durationMs(backoff);
                counters_.retried++;
                return;
            }
        }
        // Budget exhausted: fall through and deliver the refusal.
    }

    pending_.resolve(alias);
    resolveLocked(job, rewriteResponseId(line, alias, job->client_id),
                  !is_error);
}

void
FleetRouter::resolveLocked(const PendingPtr& job, const std::string& line,
                           bool ok)
{
    if (ok) counters_.resolved_ok++;
    else counters_.resolved_error++;
    (void)job;
    emitLine(line);
    idle_cv_.notify_all();
}

void
FleetRouter::onShardExit(size_t index, uint64_t generation)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Shard& shard = *shards_[index];
    if (shard.generation != generation) return;
    shard.alive = false;
    shard.ping_outstanding = false;
    shard.health.onProcessExit();
    shard.transport->noteEof();
    shard.transport->finished(); // reaps a pipe child's zombie now
    shard.respawn_attempts++;
    shard.next_respawn =
        clock_.now() +
        durationMs(resilience::retryBackoffMs(
            options_.respawn_backoff, uint64_t(index),
            std::min(shard.respawn_attempts, 16)));
    if (draining_) return;

    // Failover: every job whose outstanding dispatch died with the shard
    // gets resubmitted down its preference chain right away. (A parked
    // job has no outstanding dispatch; its backoff release re-dispatches.)
    for (const PendingPtr& job : pending_.onShard(index)) {
        job->awaiting.reset();
        counters_.failovers++;
        dispatchLocked(job);
    }
}

void
FleetRouter::dispatchLocked(const PendingPtr& job)
{
    const size_t n = job->chain.size();
    for (size_t tried = 0; tried < n; ++tried) {
        const size_t target = job->chain[(job->next_chain + tried) % n];
        Shard& shard = *shards_[target];
        if (!shard.alive) continue;
        if (shard.health.state() == ShardHealth::kDown) continue;

        const std::string alias = pending_.issueAlias(job);
        job->request.set("id", serve::JsonValue::makeString(alias));
        if (!shard.transport->writeLine(job->request.dump())) {
            // Broken pipe / timed-out socket write: the reader's EOF will
            // run the full death path; meanwhile this alias simply never
            // answers (the job resolves through the next dispatch, the
            // alias becomes a stray entry cleaned up at resolution).
            shard.health.onFailure();
            continue;
        }
        job->next_chain += tried + 1;
        shard.forwarded++;
        job->awaiting = target;
        job->dispatches++;
        job->parked = false;
        return;
    }
    job->next_chain += n; // full fruitless walk: keep rotation moving
    parkOrFailLocked(job);
}

void
FleetRouter::parkOrFailLocked(const PendingPtr& job)
{
    // No shard took the job. Park for a jittered backoff while the
    // attempt budget lasts — a respawn or reconnect may be moments
    // away — then fail typed: never hang the client.
    job->parks++;
    const int attempts = job->dispatches + job->parks;
    const double spent = clock_.elapsedMs(job->admitted);
    if (attempts < options_.retry.max_attempts + 1) {
        const double backoff = resilience::retryBackoffMs(
            options_.retry, job->seq, attempts);
        if (job->deadline_ms <= 0.0 || spent + backoff < job->deadline_ms) {
            job->parked = true;
            job->release = clock_.now() + durationMs(backoff);
            return;
        }
    }
    pending_.erase(job);
    counters_.no_shard++;
    resolveLocked(job,
                  serve::encodeError(job->client_id,
                                     ErrorCode::kNoShardAvailable,
                                     "no live shard accepted the job after " +
                                         std::to_string(job->dispatches) +
                                         " dispatches"),
                  false);
}

bool
FleetRouter::handleLine(const std::string& line)
{
    serve::JsonValue parsed;
    try {
        parsed = serve::JsonValue::parse(line);
    } catch (const UserError& e) {
        std::lock_guard<std::mutex> lock(mutex_);
        counters_.rejected++;
        emitLine(serve::encodeError("", e.code(), e.what()));
        return true;
    }
    const std::string id = serve::requestId(parsed);
    const std::string op = parsed.stringOr("op", "run");

    if (op == "shutdown") return false;
    if (op == "ping") {
        std::lock_guard<std::mutex> lock(mutex_);
        size_t in_flight = 0;
        for (const PendingPtr& job : pending_.all()) {
            if (!job->parked) in_flight++;
        }
        emitLine(serve::encodePing(id, pending_.size(), in_flight));
        return true;
    }
    if (op == "metrics" || op == "fleet_status") {
        std::lock_guard<std::mutex> lock(mutex_);
        emitLine(fleetStatusLocked(id));
        return true;
    }

    serve::WireRequest request;
    try {
        request = serve::buildRequest(parsed);
    } catch (const UserError& e) {
        std::lock_guard<std::mutex> lock(mutex_);
        counters_.rejected++;
        emitLine(serve::encodeError(id, e.code(), e.what()));
        return true;
    }

    const Hash128 key = serve::jobKey(request.spec);
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ || !started_) {
        counters_.rejected++;
        emitLine(serve::encodeError(id, ErrorCode::kServiceStopped,
                                    "fleet router is not accepting jobs"));
        return true;
    }
    const PendingPtr job =
        pending_.add(id, std::move(parsed), key, request.spec.deadline_ms,
                     ring_.preferenceChain(key), clock_.now());
    counters_.admitted++;
    dispatchLocked(job);
    return true;
}

void
FleetRouter::maintenanceLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopped_) {
        tick_cv_.wait_for(lock, durationMs(options_.maintenance_tick_ms),
                          [this] { return stopped_; });
        if (stopped_) break;
        maintenanceTickLocked();
    }
}

void
FleetRouter::maintenanceTickLocked()
{
    const Clock::TimePoint now = clock_.now();

    for (size_t i = 0; i < shards_.size(); ++i) {
        Shard& shard = *shards_[i];
        if (!shard.alive) {
            if (shard.transport) shard.transport->finished();
            if (options_.respawn && !draining_ && now >= shard.next_respawn) {
                // The reader that reported this death has finished its
                // last locked call (it set alive = false); joining here
                // only waits for thread teardown. For a pipe this
                // respawns the child; for TCP it re-dials the daemon —
                // same backoff schedule, same fresh generation.
                if (shard.reader.joinable()) shard.reader.join();
                shard.transport.reset();
                spawnShardLocked(i);
                shard.respawns++;
            }
            continue;
        }
        if (shard.transport->remote() &&
            shard.health.state() == ShardHealth::kDown &&
            shard.attachment_ping_failures >=
                uint64_t(options_.health.fail_threshold)) {
            // A remote shard never delivers EOF while the network
            // blackholes it; once probes against *this* connection have
            // kept failing with health down, tear the connection down
            // ourselves so the reader observes EOF and the normal
            // failover + backoff-reconnect path runs. Gating on the
            // attachment's own failures (not just sticky health state)
            // lets a fresh reconnect pong its way back up instead of
            // being recycled before its first probe answer.
            // (terminate is idempotent; the reader exits promptly.)
            shard.transport->terminate();
        }
        if (shard.ping_outstanding &&
            clock_.elapsedMs(shard.ping_sent) > options_.ping_timeout_ms) {
            shard.ping_outstanding = false;
            shard.pings_failed++;
            shard.attachment_ping_failures++;
            shard.health.onFailure();
        }
        if (!shard.ping_outstanding &&
            clock_.elapsedMs(shard.last_probe) >=
                options_.probe_interval_ms) {
            shard.ping_id =
                "!p" + std::to_string(i) + "." + std::to_string(shard.ping_seq++);
            shard.last_probe = now;
            if (shard.transport->writeLine("{\"op\":\"ping\",\"id\":\"" +
                                           shard.ping_id + "\"}")) {
                shard.ping_outstanding = true;
                shard.ping_sent = now;
            } else {
                shard.pings_failed++;
                shard.attachment_ping_failures++;
                shard.health.onFailure();
            }
        }
    }

    for (const PendingPtr& job : pending_.all()) {
        if (job->parked && now >= job->release) dispatchLocked(job);
    }
}

bool
FleetRouter::drainFor(double timeout_ms)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return idle_cv_.wait_for(lock, durationMs(timeout_ms),
                             [this] { return pending_.size() == 0; });
}

void
FleetRouter::stop(double shard_grace_ms)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_ || !started_) {
            stopped_ = true;
            return;
        }
        draining_ = true;
        stopped_ = true;
    }
    tick_cv_.notify_all();
    if (maintenance_.joinable()) maintenance_.join();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& shard : shards_) {
            if (shard->alive && shard->transport) {
                // A spawned child is ours to drain and stop; a remote
                // daemon is a shared service — close our connection
                // (it sees EOF and drops the session) but never send
                // it a fleet-wide shutdown.
                if (!shard->transport->remote()) {
                    shard->transport->writeLine("{\"op\":\"shutdown\"}");
                }
                shard->transport->closeWrite();
            }
        }
    }

    // Bounded graceful-exit wait, then hard teardown (SIGKILL for a
    // child, socket shutdown for TCP). No router lock here: readers
    // still need it for their final onShardExit.
    const Clock::TimePoint deadline =
        clock_.now() + durationMs(shard_grace_ms);
    for (const auto& shard : shards_) {
        if (!shard->transport) continue;
        while (!shard->transport->finished() && clock_.now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        shard->transport->terminate();
        if (shard->reader.joinable()) shard->reader.join();
    }

    std::lock_guard<std::mutex> lock(mutex_);
    for (const PendingPtr& job : pending_.all()) {
        pending_.erase(job);
        resolveLocked(job,
                      serve::encodeError(job->client_id,
                                         ErrorCode::kServiceStopped,
                                         "fleet stopped before the job "
                                         "resolved"),
                      false);
    }
}

size_t
FleetRouter::pendingCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
}

FleetCounters
FleetRouter::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

ShardStatus
FleetRouter::shardStatus(size_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    QA_REQUIRE(index < shards_.size(), "shard index out of range");
    const Shard& shard = *shards_[index];
    ShardStatus status;
    status.index = int(index);
    status.pid = shard.transport ? shard.transport->pid() : -1;
    status.alive = shard.alive;
    status.generation = shard.generation;
    status.health = shard.health.state();
    status.forwarded = shard.forwarded;
    status.responses = shard.responses;
    status.errors = shard.errors;
    status.pings_ok = shard.pings_ok;
    status.pings_failed = shard.pings_failed;
    status.respawns = shard.respawns;
    status.down_transitions = shard.health.downTransitions();
    status.last_rtt_ms = shard.last_rtt_ms;
    status.transport =
        shard.transport ? shard.transport->kindName()
                        : (index < endpoints_.size() ? "tcp" : "pipe");
    status.attachment =
        shard.transport ? shard.transport->describe()
                        : (index < endpoints_.size()
                               ? endpoints_[index].str()
                               : std::string("unspawned"));
    status.queue_depth = shard.queue_depth;
    return status;
}

std::string
FleetRouter::fleetStatusJson(const std::string& id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fleetStatusLocked(id);
}

std::string
FleetRouter::fleetStatusLocked(const std::string& id) const
{
    std::ostringstream out;
    out << "{\"id\":\"" << serve::jsonEscape(id)
        << "\",\"status\":\"ok\",\"fleet\":{\"shards\":" << shards_.size()
        << ",\"pending\":" << pending_.size()
        << ",\"admitted\":" << counters_.admitted
        << ",\"resolved_ok\":" << counters_.resolved_ok
        << ",\"resolved_error\":" << counters_.resolved_error
        << ",\"rejected\":" << counters_.rejected
        << ",\"retried\":" << counters_.retried
        << ",\"failovers\":" << counters_.failovers
        << ",\"strays\":" << counters_.strays
        << ",\"no_shard\":" << counters_.no_shard
        << ",\"shard\":[";
    for (size_t i = 0; i < shards_.size(); ++i) {
        const Shard& shard = *shards_[i];
        if (i != 0) out << ",";
        out << "{\"index\":" << i << ",\"transport\":\""
            << (shard.transport
                    ? shard.transport->kindName()
                    : (i < endpoints_.size() ? "tcp" : "pipe"))
            << "\",\"attachment\":\""
            << serve::jsonEscape(shard.transport
                                     ? shard.transport->describe()
                                     : std::string("unspawned"))
            << "\",\"pid\":" << (shard.transport ? shard.transport->pid() : -1)
            << ",\"alive\":" << (shard.alive ? "true" : "false")
            << ",\"generation\":" << shard.generation << ",\"state\":\""
            << shardHealthName(shard.health.state())
            << "\",\"forwarded\":" << shard.forwarded
            << ",\"responses\":" << shard.responses
            << ",\"errors\":" << shard.errors
            << ",\"pings_ok\":" << shard.pings_ok
            << ",\"pings_failed\":" << shard.pings_failed
            << ",\"respawns\":" << shard.respawns
            << ",\"down_transitions\":" << shard.health.downTransitions()
            << ",\"last_rtt_ms\":" << serve::jsonNumber(shard.last_rtt_ms)
            << ",\"queue_depth\":" << serve::jsonNumber(shard.queue_depth)
            << "}";
    }
    out << "]}}";
    return out.str();
}

void
FleetRouter::emitLine(const std::string& line)
{
    std::lock_guard<std::mutex> lock(emit_mutex_);
    if (emit_) emit_(line);
}

} // namespace fleet
} // namespace qa
