/**
 * @file
 * Small POSIX TCP helpers shared by the remote-fleet pieces: the
 * qassertd listen loop (serve/listen.hpp), the router's TCP shard
 * transport (fleet/transport.hpp), and the qa_netchaos fault-injection
 * proxy.
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

} // namespace net
} // namespace qa

#endif // QA_COMMON_NET_HPP
