#include "fleet/process.hpp"

#include <csignal>
#include <cstring>

#include <errno.h>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"

namespace qa
{
namespace fleet
{

namespace
{

void
closeQuiet(int& fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

} // namespace

ChildProcess::ChildProcess(std::vector<std::string> argv)
{
    QA_REQUIRE(!argv.empty(), "child process needs a non-empty argv");

    // A shard dying between our liveness check and our write must not
    // SIGPIPE-kill the whole fleet; writeLine reports EPIPE instead.
    std::signal(SIGPIPE, SIG_IGN);

    int to_child[2] = {-1, -1};   // parent writes [1] -> child stdin [0]
    int from_child[2] = {-1, -1}; // child stdout [1] -> parent reads [0]
    if (::pipe(to_child) != 0) {
        QA_FAIL("pipe(to_child) failed: " +
                std::string(std::strerror(errno)));
    }
    if (::pipe(from_child) != 0) {
        ::close(to_child[0]);
        ::close(to_child[1]);
        QA_FAIL("pipe(from_child) failed: " +
                std::string(std::strerror(errno)));
    }

    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (std::string& arg : argv) cargv.push_back(arg.data());
    cargv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(to_child[0]);
        ::close(to_child[1]);
        ::close(from_child[0]);
        ::close(from_child[1]);
        QA_FAIL("fork failed: " + std::string(std::strerror(errno)));
    }
    if (pid == 0) {
        // Child: only async-signal-safe calls between fork and exec.
        ::dup2(to_child[0], STDIN_FILENO);
        ::dup2(from_child[1], STDOUT_FILENO);
        ::close(to_child[0]);
        ::close(to_child[1]);
        ::close(from_child[0]);
        ::close(from_child[1]);
        ::execvp(cargv[0], cargv.data());
        _exit(127); // exec failed; parent sees immediate EOF
    }

    pid_ = pid;
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
    // The fds must not leak into sibling shards respawned later: a
    // leaked stdin write-end would keep a drained shard's stdin open
    // forever (no EOF, no exit).
    ::fcntl(in_fd_, F_SETFD, FD_CLOEXEC);
    ::fcntl(out_fd_, F_SETFD, FD_CLOEXEC);
}

ChildProcess::~ChildProcess()
{
    forceReap();
    closeQuiet(in_fd_);
    closeQuiet(out_fd_);
}

bool
ChildProcess::writeLine(const std::string& line)
{
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (in_fd_ < 0) return false;
    std::string buf = line;
    buf.push_back('\n');
    size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n = ::write(in_fd_, buf.data() + off,
                                  buf.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false; // EPIPE et al.: the shard is gone
        }
        off += size_t(n);
    }
    return true;
}

void
ChildProcess::closeStdin()
{
    std::lock_guard<std::mutex> lock(write_mutex_);
    closeQuiet(in_fd_);
}

bool
ChildProcess::reapedLocked(int wait_flags)
{
    if (reaped_) return true;
    const pid_t r = ::waitpid(pid_, nullptr, wait_flags);
    if (r == pid_) {
        reaped_ = true;
        // The write end of the dead child's stdin is pure leak from
        // here on (nobody will ever read it); close it now instead of
        // waiting for the destructor — an owner that reaps exec-failure
        // children in a loop must not accumulate pipe fds. The stdout
        // read end stays open: a LineReader may still be draining what
        // the child flushed before dying.
        std::lock_guard<std::mutex> lock(write_mutex_);
        closeQuiet(in_fd_);
    }
    return reaped_;
}

bool
ChildProcess::tryReap()
{
    std::lock_guard<std::mutex> lock(reap_mutex_);
    return reapedLocked(WNOHANG);
}

void
ChildProcess::forceReap()
{
    std::lock_guard<std::mutex> lock(reap_mutex_);
    if (reaped_) return;
    ::kill(pid_, SIGKILL);
    while (!reapedLocked(0) && errno == EINTR) {}
    if (!reaped_) {
        // waitpid failed outright (ECHILD: someone else collected it);
        // treat the child as gone rather than retrying forever.
        reaped_ = true;
        std::lock_guard<std::mutex> wlock(write_mutex_);
        closeQuiet(in_fd_);
    }
}

bool
ChildProcess::reaped() const
{
    std::lock_guard<std::mutex> lock(reap_mutex_);
    return reaped_;
}

} // namespace fleet
} // namespace qa
