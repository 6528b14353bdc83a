/**
 * @file
 * Journal replay as a library: re-execute every accepted request of a
 * crash-safe journal (resilience/journal.hpp) in admission order and
 * emit one timing-free response line each (wire.hpp encodeReplay).
 * Because executeJob is a pure function of the spec, the output is
 * byte-identical no matter when or where the journal was written —
 * including a journal cut short by SIGKILL. Journaled completion
 * records double as an integrity check: a recomputed payload hash that
 * disagrees with the journaled one fails the replay.
 *
 * Extracted from the qassertd main so the **cancellation contract** is
 * unit-testable without signals: replay used to run with default signal
 * dispositions, so a drain signal (SIGTERM during a supervised restart,
 * ^C on an operator console) killed the process mid-replay — possibly
 * mid-line on stdout. Now the daemon installs its drain handlers before
 * replaying and passes the signal flag as `ReplayOptions::cancel`; the
 * loop polls it between jobs and aborts *cleanly*: only complete lines
 * emitted, streams flushed, a typed kInterrupted report, and the
 * journal file untouched (replay only ever reads it).
 */
#ifndef QA_SERVE_REPLAY_HPP
#define QA_SERVE_REPLAY_HPP

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <string>

namespace qa
{
namespace serve
{

/** How a replay ended. */
enum class ReplayStatus
{
    kOk,          ///< All journaled payloads reproduced bit-identically.
    kInterrupted, ///< Cancelled between jobs; output is a clean prefix.
    kHashMismatch ///< At least one recomputed payload hash disagreed.
};

/** Replay knobs. */
struct ReplayOptions
{
    /**
     * Cooperative cancellation flag (set non-zero by a signal handler),
     * polled between jobs; nullptr = not cancellable. Replay never
     * stops mid-job, so every emitted line is complete.
     */
    const std::atomic<int>* cancel = nullptr;
};

/** What happened, for exit codes and tests. */
struct ReplayReport
{
    ReplayStatus status = ReplayStatus::kOk;
    size_t total = 0;      ///< Accepted records found in the journal.
    size_t executed = 0;   ///< Jobs actually re-executed.
    size_t mismatches = 0; ///< Payload-hash disagreements.
    bool torn_tail = false;
};

/**
 * Replay the journal at `path`, writing response lines to `out` and
 * human-readable progress/diagnostics to `diag` (stderr in the daemon).
 * Throws UserError when the journal cannot be opened or scanned.
 */
ReplayReport replayJournal(const std::string& path, std::ostream& out,
                           std::ostream& diag,
                           const ReplayOptions& options = {});

} // namespace serve
} // namespace qa

#endif // QA_SERVE_REPLAY_HPP
