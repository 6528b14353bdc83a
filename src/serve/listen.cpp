#include "serve/listen.hpp"

#include "common/error.hpp"
#include "common/net.hpp"
#include "serve/wire.hpp"

namespace qa
{
namespace serve
{

namespace
{

constexpr int kListenBacklog = 16;

/** Bound on one response write to a client that stopped reading. */
constexpr double kWriteTimeoutMs = 10000.0;

} // namespace

LineService::LineService(Scheduler& scheduler,
                         resilience::Journal* journal,
                         const Options& options)
    : scheduler_(scheduler), journal_(journal), options_(options)
{}

bool
LineService::handleLine(const std::string& line, const Emit& emit)
{
    if (line.find_first_not_of(" \t\r") == std::string::npos) return true;

    JsonValue parsed;
    try {
        parsed = JsonValue::parse(line);
    } catch (const UserError& err) {
        emit(encodeError("", err.code(), err.what()));
        return true;
    }
    const std::string id = requestId(parsed);

    try {
        WireRequest request = buildRequest(parsed);
        // --auto-assert is a default, not an override: requests that
        // name the field (either value) keep their own.
        if (options_.auto_assert &&
            parsed.find("auto_assert") == nullptr) {
            request.spec.auto_assert = true;
        }
        if (request.op == RequestOp::kPing) {
            // Answered on the read loop, never queued: the fleet
            // router's health prober needs pongs even when every
            // worker is busy and the queue is full.
            emit(encodePing(id, scheduler_.queueDepth(),
                            scheduler_.inFlight()));
            return true;
        }
        if (request.op == RequestOp::kMetrics) {
            emit(encodeMetrics(scheduler_.metrics()));
            return true;
        }
        if (request.op == RequestOp::kExplain) {
            // Plan without executing: the same compile-and-route step
            // a run takes, zero shots.
            const acomp::PlannedRun plan = planJob(request.spec);
            emit(encodeExplain(id, plan.route.choice,
                               plan.compiled ? &*plan.compiled : nullptr));
            return true;
        }
        if (request.op == RequestOp::kShutdown) return false;

        uint64_t seq = 0;
        {
            // One write-ahead stream across every connection: the seq
            // mint and the accept record must be one atomic step or two
            // connections could interleave them out of order.
            std::lock_guard<std::mutex> lock(journal_mutex_);
            seq = journal_seq_++;
            if (journal_ != nullptr) journal_->appendAccept(seq, line);
        }
        resilience::Journal* journal_raw = journal_;
        try {
            scheduler_.submit(
                std::move(request.spec),
                [id, seq, emit, journal_raw](JobResult result) {
                    if (journal_raw != nullptr) {
                        journal_raw->appendComplete(
                            seq, jobStatusName(result.status),
                            payloadHash(result).str());
                    }
                    emit(encodeResult(id, result));
                });
        } catch (const UserError&) {
            // Admission refused after the write-ahead record: close
            // the journal entry so replay does not resurrect a job
            // the caller saw rejected.
            if (journal_ != nullptr) {
                journal_->appendComplete(seq, "rejected", "");
            }
            throw;
        }
    } catch (const UserError& err) {
        // Saturation rejections carry the scheduler's own estimate of
        // when a resubmission could succeed, so routers and
        // well-behaved clients back off instead of hammering.
        emit(encodeError(id, err.code(), err.what(),
                         scheduler_.retryAfterMsHint(err.code())));
    }
    return true;
}

bool
serveLines(LineService& service, net::LineReader& reader,
           const LineService::Emit& emit, const std::atomic<int>* cancel)
{
    std::string line;
    for (;;) {
        if (cancel != nullptr && cancel->load() != 0) return false;
        switch (reader.next(&line)) {
        case net::LineReader::Status::kTimeout: continue; // re-check flags
        case net::LineReader::Status::kEof: return false;
        case net::LineReader::Status::kOverflow:
            emit(encodeOverflow(reader.maxLen()));
            continue;
        case net::LineReader::Status::kOk:
            if (!service.handleLine(line, emit)) return true;
            continue;
        }
    }
}

/**
 * One accepted connection: the reader thread owns the receive side,
 * the locked writer (shared with scheduler callbacks) owns the send
 * side, and the fd is closed only when the last reference — possibly a
 * completion callback firing after the connection died — lets go.
 */
struct SocketServer::Connection
{
    int fd = -1;
    std::thread reader;
    std::mutex write_mutex;
    bool write_dead = false;
    std::atomic<bool> done{false};

    ~Connection()
    {
        net::closeQuiet(fd);
    }

    void
    writeLine(const std::string& line)
    {
        std::lock_guard<std::mutex> lock(write_mutex);
        if (write_dead) return;
        std::string buf = line;
        buf.push_back('\n');
        if (!net::writeAllBounded(fd, buf.data(), buf.size(),
                                  kWriteTimeoutMs)) {
            // Client gone or wedged past the bound: stop writing (the
            // reader will observe the death too) but keep the fd open
            // for the remaining callback holders.
            write_dead = true;
            net::shutdownBoth(fd);
        }
    }
};

SocketServer::SocketServer(LineService& service, const Options& options)
    : service_(service), options_(options)
{}

SocketServer::~SocketServer()
{
    stop();
    net::closeQuiet(listen_fd_);
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_) {
        net::shutdownBoth(conn->fd);
        if (conn->reader.joinable()) conn->reader.join();
    }
    conns_.clear();
}

bool
SocketServer::start(std::string* error)
{
    listen_fd_ = net::tcpListen(options_.host, options_.port,
                                kListenBacklog, &port_, error);
    return listen_fd_ >= 0;
}

void
SocketServer::serveConnection(const std::shared_ptr<Connection>& conn)
{
    // The reader ends at stopping_, which run() also sets on a drain
    // signal. Completion callbacks capture the connection shared_ptr:
    // the fd stays valid for a late write (job finishing after the
    // client left, or after run() returned), and dies with the last
    // in-flight job.
    net::LineReader reader(conn->fd, options_.max_line, kServeTickMs,
                           &stopping_);
    const bool shutdown_requested = serveLines(
        service_, reader,
        [conn](const std::string& out) { conn->writeLine(out); },
        nullptr);
    conn->done.store(true);
    if (shutdown_requested) stop();
}

void
SocketServer::reapFinishedLocked()
{
    for (size_t i = 0; i < conns_.size();) {
        if (conns_[i]->done.load()) {
            if (conns_[i]->reader.joinable()) conns_[i]->reader.join();
            conns_.erase(conns_.begin() + long(i));
        } else {
            ++i;
        }
    }
}

void
SocketServer::run(const std::atomic<int>* cancel)
{
    while (!stopping_.load() &&
           (cancel == nullptr || cancel->load() == 0)) {
        const int fd = net::tcpAccept(listen_fd_, kServeTickMs);
        if (fd == -1) { // poll tick: reap closed connections, re-check
            std::lock_guard<std::mutex> lock(conns_mutex_);
            reapFinishedLocked();
            continue;
        }
        if (fd == -2) break; // listener broken (or closed under us)
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            accepted_++;
            conn->reader =
                std::thread([this, conn] { serveConnection(conn); });
            conns_.push_back(conn);
            reapFinishedLocked();
        }
    }
    stopping_.store(true);

    // Every reader sees stopping_ on its next poll tick; join them.
    // The sockets stay open: a completion callback still holding a
    // connection writes its reply when the job finishes, and the fd
    // closes when the last such holder lets go.
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_) {
        if (conn->reader.joinable()) conn->reader.join();
    }
    conns_.clear();
}

void
SocketServer::stop()
{
    stopping_.store(true);
}

} // namespace serve
} // namespace qa
