#include "serve/listen.hpp"

#include <unistd.h>

#include <cerrno>

#include "common/error.hpp"
#include "common/net.hpp"
#include "serve/wire.hpp"

namespace qa
{
namespace serve
{

LineService::LineService(Scheduler& scheduler,
                         resilience::Journal* journal,
                         const Options& options)
    : scheduler_(scheduler), journal_(journal), options_(options)
{}

std::string
LineService::overflowError(size_t max_line) const
{
    return encodeError("", ErrorCode::kBadRequest,
                       "input line exceeds the " +
                           std::to_string(max_line) +
                           "-byte bound; request rejected unread");
}

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

/**
 * One accepted connection: the reader thread owns the receive side,
 * the locked writer (shared with scheduler callbacks) owns the send
 * side, and the fd is closed only when the last reference — possibly a
 * completion callback firing after the connection died — lets go.
 */
struct SocketServer::Connection
{
    int fd = -1;
    double write_timeout_ms = 10000.0;
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
                                  write_timeout_ms)) {
            // Client gone or wedged past the bound: stop writing (the
            // reader will observe the death too) but keep the fd open
            // for the remaining callback holders.
            write_dead = true;
            net::shutdownBoth(fd);
        }
    }

    void
    teardown()
    {
        net::shutdownBoth(fd);
    }
};

namespace
{

/** Bounded poll-driven NDJSON reader for one connection fd. */
class ConnReader
{
  public:
    ConnReader(int fd, size_t max_len, double poll_ms)
        : fd_(fd), max_len_(max_len), poll_ms_(poll_ms)
    {}

    enum class Status
    {
        kOk,
        kEof,
        kOverflow,
        kIdle ///< Poll tick elapsed with no data (caller checks flags).
    };

    Status
    next(std::string* out)
    {
        out->clear();
        for (;;) {
            const size_t nl = buffer_.find('\n', scanned_);
            if (nl != std::string::npos) {
                const bool overflow = overflow_ || nl > max_len_;
                if (!overflow) out->assign(buffer_, 0, nl);
                buffer_.erase(0, nl + 1);
                scanned_ = 0;
                overflow_ = false;
                return overflow ? Status::kOverflow : Status::kOk;
            }
            scanned_ = buffer_.size();
            if (buffer_.size() > max_len_ && !overflow_) {
                overflow_ = true; // keep consuming to the newline
                buffer_.clear();
                scanned_ = 0;
            }
            if (eof_) {
                if (buffer_.empty() && !overflow_) return Status::kEof;
                const bool overflow = overflow_;
                if (!overflow) out->assign(buffer_);
                buffer_.clear();
                overflow_ = false;
                return overflow ? Status::kOverflow : Status::kOk;
            }
            if (!net::pollReadable(fd_, poll_ms_)) return Status::kIdle;
            char chunk[4096];
            const ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n < 0) {
                if (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK) {
                    continue;
                }
                eof_ = true;
                continue;
            }
            if (n == 0) {
                eof_ = true;
                continue;
            }
            buffer_.append(chunk, size_t(n));
        }
    }

  private:
    int fd_;
    size_t max_len_;
    double poll_ms_;
    std::string buffer_;
    size_t scanned_ = 0;
    bool eof_ = false;
    bool overflow_ = false;
};

} // namespace

SocketServer::SocketServer(LineService& service, const Options& options)
    : service_(service), options_(options)
{}

SocketServer::~SocketServer()
{
    stop();
    net::closeQuiet(listen_fd_);
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_) {
        conn->teardown();
        if (conn->reader.joinable()) conn->reader.join();
    }
    conns_.clear();
}

bool
SocketServer::start(std::string* error)
{
    listen_fd_ = net::tcpListen(options_.host, options_.port,
                                options_.backlog, &port_, error);
    return listen_fd_ >= 0;
}

void
SocketServer::serveConnection(const std::shared_ptr<Connection>& conn)
{
    ConnReader reader(conn->fd, options_.max_line, options_.poll_ms);
    std::string line;
    bool shutdown_requested = false;
    while (!stopping_.load()) {
        const ConnReader::Status status = reader.next(&line);
        if (status == ConnReader::Status::kIdle) continue;
        if (status == ConnReader::Status::kEof) break;
        if (status == ConnReader::Status::kOverflow) {
            conn->writeLine(service_.overflowError(options_.max_line));
            continue;
        }
        // Completion callbacks capture the connection shared_ptr: the
        // fd stays valid for a late write (job finishing after the
        // client left), and dies with the last in-flight job.
        if (!service_.handleLine(line, [conn](const std::string& out) {
                conn->writeLine(out);
            })) {
            shutdown_requested = true;
            break;
        }
    }
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
SocketServer::run(const volatile std::sig_atomic_t* cancel)
{
    while (!stopping_.load() && (cancel == nullptr || *cancel == 0)) {
        const int fd = net::tcpAccept(listen_fd_, options_.poll_ms);
        if (fd == -1) { // poll tick: reap closed connections, re-check
            std::lock_guard<std::mutex> lock(conns_mutex_);
            reapFinishedLocked();
            continue;
        }
        if (fd == -2) break; // listener broken (or closed under us)
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        conn->write_timeout_ms = options_.write_timeout_ms;
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

    // Tear every connection down (a blocked reader wakes with EOF) and
    // join. Scheduler callbacks may still hold connection refs; they
    // write into shut-down fds harmlessly.
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_) conn->teardown();
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
