/**
 * @file
 * qassertd's front-ends: the shared per-line request service, the one
 * serve loop that feeds it, and the TCP accept loop behind
 * `qassertd --listen`.
 *
 * The wire protocol is byte-identical on stdin/stdout and over a socket
 * (serve/wire.hpp) — a connection is just another NDJSON stream — so
 * everything the pipe fleet relies on (immediate queue_full refusals
 * with retry_after_ms, pings answered on the read loop,
 * write-ahead journaling) behaves the same over a socket. That is what
 * lets the fleet router treat "child on a pipe" and "daemon on a port"
 * as two transports of the same shard (fleet/transport.hpp).
 *
 * Structure:
 *  - **LineService** — one request line in, zero-or-more response lines
 *    out through a caller-supplied emit. Owns the journal sequence (one
 *    write-ahead stream across every connection) and the scheduler
 *    hand-off.
 *  - **serveLines** — the one read loop: a bounded net::LineReader
 *    (common/net.hpp) in, oversize lines answered with encodeOverflow
 *    and never buffered whole, every other line handed to LineService.
 *    qassertd's stdin mode and every socket connection run it, so the
 *    two front-ends cannot drift.
 *  - **SocketServer** — bind/listen/accept with one serveLines thread
 *    per connection and a per-connection locked writer. The writer is
 *    held by shared_ptr from scheduler completion callbacks, so a
 *    connection that dies mid-job leaves the late result writing into a
 *    dead (but still valid) fd — never a reused descriptor.
 *
 * Shutdown: {"op":"shutdown"} on *any* connection — or the process
 * drain signals, seen on the kServeTickMs poll tick — stops the accept
 * loop and every connection's reader on that same tick, joins them and
 * returns from run(); the caller then drains the scheduler exactly as
 * the stdin path does. Connections are not shut down: a job still
 * running writes its reply when it finishes, and each fd closes when
 * the last completion callback holding its connection lets go, so a
 * client reads every answer before EOF. EOF on one connection only
 * ends that connection: remote routers come and go, the daemon stays.
 */
#ifndef QA_SERVE_LISTEN_HPP
#define QA_SERVE_LISTEN_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/net.hpp"
#include "resilience/journal.hpp"
#include "serve/scheduler.hpp"

namespace qa
{
namespace serve
{

/** One request line -> response lines, shared by stdin and sockets. */
class LineService
{
  public:
    struct Options
    {
        /** Default auto_assert for requests that omit the field. */
        bool auto_assert = false;
    };

    /** Sink for one response line (no trailing newline). Must be safe
     * to call from scheduler worker threads. */
    using Emit = std::function<void(const std::string&)>;

    /** `journal` may be nullptr (no write-ahead). Not owned. */
    LineService(Scheduler& scheduler, resilience::Journal* journal,
                const Options& options);

    /**
     * Handle one NDJSON request line. Responses go through `emit` —
     * synchronously for protocol ops and rejections, later from a
     * worker thread for admitted runs (emit is copied into the
     * completion callback). Returns false when the line was a shutdown
     * request; every other outcome returns true.
     */
    bool handleLine(const std::string& line, const Emit& emit);

  private:
    Scheduler& scheduler_;
    resilience::Journal* journal_;
    Options options_;
    std::mutex journal_mutex_; ///< seq mint + write-ahead are atomic.
    uint64_t journal_seq_ = 0;
};

/** Poll tick of the read and accept loops: how often an idle stream
 * re-checks the stop flag and drain signals. */
constexpr double kServeTickMs = 200.0;

/**
 * The one serve loop: answer an oversize line with encodeOverflow and
 * hand every other line to `service`, responses through `emit`. True
 * when a shutdown op arrived; false at EOF (which a reader built with
 * a stop flag reports once it is set) or once `*cancel` goes non-zero
 * (nullptr: never). Give `reader` the kServeTickMs idle timeout so an
 * idle stream sees the flags.
 */
bool serveLines(LineService& service, net::LineReader& reader,
                const LineService::Emit& emit,
                const std::atomic<int>* cancel);

/** TCP accept loop serving LineService to any number of connections. */
class SocketServer
{
  public:
    struct Options
    {
        std::string host = "127.0.0.1";
        int port = 0; ///< 0 = ephemeral (read back via port()).
        size_t max_line = size_t(1) << 20;
    };

    SocketServer(LineService& service, const Options& options);

    /** stop()s and joins; never blocks on a live client. */
    ~SocketServer();

    SocketServer(const SocketServer&) = delete;
    SocketServer& operator=(const SocketServer&) = delete;

    /** Bind + listen. False (with *error) on failure. */
    bool start(std::string* error);

    /** Actually bound port (after start; ephemeral ports resolved). */
    int port() const { return port_; }

    /**
     * Accept and serve until a shutdown request arrives on some
     * connection, `*cancel` goes non-zero (drain signal), or stop() is
     * called. Every reader stops on its next poll tick (one stuck in a
     * write is bounded by the write timeout) and is joined before
     * run() returns; replies to jobs still in flight are written when
     * they complete.
     */
    void run(const std::atomic<int>* cancel);

    /** Make run() return (callable from any thread). Idempotent. */
    void stop();

    /** Connections accepted over the server's lifetime. */
    uint64_t accepted() const { return accepted_; }

  private:
    struct Connection;

    void serveConnection(const std::shared_ptr<Connection>& conn);
    void reapFinishedLocked();

    LineService& service_;
    Options options_;
    int listen_fd_ = -1;
    int port_ = 0;
    std::atomic<bool> stopping_{false};
    uint64_t accepted_ = 0;

    std::mutex conns_mutex_;
    std::vector<std::shared_ptr<Connection>> conns_;
};

} // namespace serve
} // namespace qa

#endif // QA_SERVE_LISTEN_HPP
