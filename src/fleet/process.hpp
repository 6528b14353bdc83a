/**
 * @file
 * Child-process plumbing for the fleet: spawn a shard (or a router, for
 * the load generator) with its stdin/stdout attached to pipes, write it
 * NDJSON request lines, and read its NDJSON response lines.
 *
 * The wire protocol is stdin/stdout-based by design (DESIGN.md Sec. 9),
 * so "a shard" is exactly "a qassertd child on a pipe pair": SIGKILLing
 * the child is a faithful shard-crash fault, EOF on its stdout is the
 * death signal, and respawning is fork/exec again. stderr is inherited
 * so shard diagnostics interleave into the parent's log.
 *
 * Robustness details that matter here:
 *  - writes handle EINTR and report (not raise) EPIPE — a dead shard
 *    must never take the router down, so spawn() also forces SIGPIPE to
 *    SIG_IGN process-wide (documented; the tool mains do it too);
 *  - responses are read with net::LineReader (common/net.hpp), the
 *    same bounded reader qassertd uses for its own input: EINTR-safe,
 *    bounded per line without buffering an oversize one, and with an
 *    optional idle-read timeout so a wedged peer cannot park a reader;
 *  - reaping closes the child's stdin pipe fd immediately (a dead
 *    child's write end is pure leak — before this fix an exec-failure
 *    child reaped via tryReap kept both pipe fds open until the
 *    destructor ran), while the stdout fd stays open so a LineReader
 *    can still drain whatever the child flushed before dying;
 *  - the destructor never blocks on a live child: it SIGKILLs and
 *    reaps, because by then the owner has already drained gracefully
 *    or decided not to.
 */
#ifndef QA_FLEET_PROCESS_HPP
#define QA_FLEET_PROCESS_HPP

#include <sys/types.h>

#include <mutex>
#include <string>
#include <vector>

#include "common/net.hpp"

namespace qa
{
namespace fleet
{

/** One spawned child with pipe-attached stdin/stdout. */
class ChildProcess
{
  public:
    /**
     * fork/exec `argv` (argv[0] is the binary path, PATH-resolved via
     * execvp). Throws UserError when the pipes or fork fail; an exec
     * failure surfaces as immediate child exit 127 (EOF on first read).
     */
    explicit ChildProcess(std::vector<std::string> argv);

    /** SIGKILLs and reaps when the child still runs; closes the pipes. */
    ~ChildProcess();

    ChildProcess(const ChildProcess&) = delete;
    ChildProcess& operator=(const ChildProcess&) = delete;

    /**
     * Write one line (newline appended) to the child's stdin. Thread
     * safe (router main + maintenance threads both write). Returns
     * false when the pipe is broken — the caller marks the shard down.
     */
    bool writeLine(const std::string& line);

    /** Close the child's stdin (EOF-initiated drain). Idempotent. */
    void closeStdin();

    pid_t pid() const { return pid_; }

    /** Read end of the child's stdout (for a LineReader). */
    int readFd() const { return out_fd_; }

    /**
     * Non-blocking reap; true once the child has been collected. Reaping
     * also closes the (now useless) stdin pipe fd so a collected child
     * — including the exec-failure exit-127 case — leaks nothing while
     * the object lives on. Thread safe.
     */
    bool tryReap();

    /** SIGKILL + blocking reap. Idempotent and thread safe. */
    void forceReap();

    bool reaped() const;

  private:
    bool reapedLocked(int wait_flags);

    pid_t pid_ = -1;
    int in_fd_ = -1;  ///< Write end of the child's stdin.
    int out_fd_ = -1; ///< Read end of the child's stdout.
    bool reaped_ = false;
    std::mutex write_mutex_;
    mutable std::mutex reap_mutex_;
};

/** The reader now lives in common/net; perfbench/cpp/drive.cpp still
 * reads its child's responses through this old name. */
using LineReader = net::LineReader;

} // namespace fleet
} // namespace qa

#endif // QA_FLEET_PROCESS_HPP
