/**
 * @file
 * Small POSIX stream helpers shared by the service and fleet pieces:
 * TCP listen/connect/accept for the qassertd listen loop
 * (serve/listen.hpp), the router's TCP shard transport
 * (fleet/transport.hpp) and the qa_netchaos fault-injection proxy, plus
 * LineReader, the one bounded NDJSON line reader. It reads qassertd's
 * and qa_router's stdin, every `qassertd --listen` connection, shard
 * responses, and the load generator's view of its target.
 *
 * Design rules that every user of this file relies on:
 *  - **Everything is bounded.** connect, write, and poll all take a
 *    deadline in milliseconds; nothing here blocks forever on a peer
 *    that stopped cooperating (the exact failure qa_netchaos injects).
 *  - **Errors are return values, not exceptions**, except for caller
 *    mistakes (malformed host:port) which throw UserError. A refused
 *    or timed-out connect is an expected runtime event on a fleet —
 *    the caller backs off and retries; it must not unwind the router.
 *  - **Localhost-first.** Host resolution covers numeric IPv4 and
 *    "localhost"; the fleet protocol is plaintext NDJSON and is meant
 *    for loopback or trusted-network hops only (DESIGN.md Sec. 15).
 */
#ifndef QA_COMMON_NET_HPP
#define QA_COMMON_NET_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace qa
{
namespace net
{

/** A parsed "host:port" endpoint. */
struct Endpoint
{
    std::string host = "127.0.0.1";
    int port = 0;

    std::string str() const { return host + ":" + std::to_string(port); }
};

/**
 * Parse "host:port" (host optional: ":9000" and "9000" mean
 * 127.0.0.1). Throws UserError(kBadRequest) on malformed input or a
 * port outside [0, 65535].
 */
Endpoint parseEndpoint(const std::string& text);

/**
 * Bind + listen on `host:port` (port 0 = ephemeral). Returns the
 * listening fd (CLOEXEC, SO_REUSEADDR) and stores the actually bound
 * port in `*bound_port`. Returns -1 with `*error` filled on failure.
 */
int tcpListen(const std::string& host, int port, int backlog,
              int* bound_port, std::string* error);

/**
 * Connect to `host:port` with a bounded handshake (non-blocking
 * connect + poll). Returns a connected fd (CLOEXEC, TCP_NODELAY,
 * left non-blocking) or -1 on refusal/timeout/resolution failure.
 */
int tcpConnect(const std::string& host, int port, double timeout_ms);

/**
 * Accept one connection, waiting at most `timeout_ms` (<0 = forever).
 * Returns the connection fd (CLOEXEC), -1 on timeout, -2 on a real
 * accept error (listener broken), and retries EINTR/transient errors
 * within the deadline.
 */
int tcpAccept(int listen_fd, double timeout_ms);

/** Wait for readability; true when `fd` is readable within the bound.
 * `timeout_ms` < 0 waits forever. EINTR is retried within the bound. */
bool pollReadable(int fd, double timeout_ms);

/**
 * Write all of `data` to socket `fd`, tolerating partial writes and
 * EAGAIN on non-blocking fds by polling for writability, bounded by
 * `timeout_ms` (<= 0: a single non-blocking pass must succeed).
 * False when the peer is gone or the deadline passed with bytes
 * still unwritten — the caller treats the stream as dead.
 */
bool writeAllBounded(int fd, const char* data, size_t len,
                     double timeout_ms);

/** Half-close or full-close shutdown that never throws. */
void shutdownWrite(int fd);
void shutdownBoth(int fd);

/** close() that tolerates fd < 0 and EINTR. */
void closeQuiet(int fd);

/** Set/clear O_NONBLOCK; returns false on fcntl failure. */
bool setNonBlocking(int fd, bool enabled);

/**
 * Buffered bounded NDJSON line reader over a raw fd (a pipe, a socket,
 * or stdin). A line longer than `max_len` bytes (newline excluded) is
 * dropped as it arrives, never buffered whole: memory stays within
 * about `max_len` plus one 4 KiB read, whatever the peer sends.
 */
class LineReader
{
  public:
    enum class Status
    {
        kOk,       ///< One complete line (newline stripped) in `out`.
        kEof,      ///< Stream ended before any byte of a new line.
        kOverflow, ///< Line exceeded the bound; rest consumed.
        kTimeout   ///< No bytes arrived within the idle-read timeout.
    };

    /**
     * `idle_timeout_ms` bounds how long one next() call may sit waiting
     * for the fd to become readable (0 = wait forever, the pipe-shard
     * default). A wedged peer — a partitioned TCP shard, a child that
     * stopped writing without exiting — surfaces as kTimeout instead of
     * parking the reader thread forever, and a serve loop uses the same
     * tick to notice drain signals. Buffered complete lines are still
     * returned first, and next() may be called again after a timeout
     * (the partial line, or the overflow in progress, is kept).
     *
     * Once `*stop` is set (when given), next() returns kEof without
     * reading further: the owner is closing the stream, and a peer
     * dribbling one long line cannot hold the reader past one tick.
     */
    explicit LineReader(int fd, size_t max_len = size_t(1) << 20,
                        double idle_timeout_ms = 0.0,
                        const std::atomic<bool>* stop = nullptr)
        : fd_(fd), max_len_(max_len), idle_timeout_ms_(idle_timeout_ms),
          stop_(stop)
    {}

    /** Read the next line; EINTR and EAGAIN are retried. A final line
     * with no newline is kOk, or kOverflow when over the bound. */
    Status next(std::string* out);

    size_t maxLen() const { return max_len_; }

  private:
    int fd_;
    size_t max_len_;
    double idle_timeout_ms_;
    const std::atomic<bool>* stop_;
    std::string buffer_;
    size_t scanned_ = 0;     ///< buffer_ prefix already searched for '\n'.
    bool eof_ = false;
    bool discarding_ = false; ///< Over the bound: drop bytes to '\n'.
};

} // namespace net
} // namespace qa

#endif // QA_COMMON_NET_HPP
