/**
 * @file
 * qassertd: the assertion service front-end. Speaks newline-delimited
 * JSON over stdin/stdout (protocol: serve/wire.hpp) and drives the
 * in-process Scheduler — batching, priorities, the cross-job result
 * cache and per-job deadlines all come from there. Each admitted job
 * runs exactly once: its result is a pure function of the request, so
 * a failed job is answered with its typed error and never re-run.
 * Recovery from a crash is journal replay (--journal / --replay), and
 * in a fleet, qa_router's failover to a sibling shard.
 *
 * Usage:
 *   qassertd [--workers N] [--queue N] [--cache N] [--max-line N]
 *            [--auto-assert] [--journal PATH] [--sync-every N]
 *            [--drain-ms X]
 *            [--listen HOST:PORT] [--port-file PATH]
 *   qassertd --replay PATH
 *
 * --listen serves the same NDJSON protocol over TCP instead of stdin:
 * any number of concurrent connections (each a remote qa_router, or a
 * plain netcat), one reader thread per connection, responses written to
 * the connection the request arrived on. Port 0 binds an ephemeral
 * port; --port-file writes the actually bound port to PATH (how test
 * harnesses avoid port races). A shutdown request on any connection —
 * or SIGTERM/SIGINT — drains the whole daemon; a connection closing
 * only ends that connection.
 *
 * --auto-assert defaults every request that does not name the field to
 * {"auto_assert":true}: raw circuits get assertion-compiler invariants
 * discovered, lowered, and checked (serve/job.hpp). Requests that do
 * carry the field keep their own value, and {"op":"explain"} requests
 * plan under the same default.
 *
 * Behaviour:
 *  - every input line is one request; every response is one line
 *    tagged with the request's id, emitted in completion order;
 *  - input lines are bounded (--max-line, default 1 MiB); an oversize
 *    line is consumed and rejected with {"code":"bad_request"} without
 *    ever being buffered whole;
 *  - an admission rejection ({"code":"queue_full"}, with a
 *    retry_after_ms hint) is immediate — the reader never blocks on a
 *    full queue, callers are expected to retry with backoff;
 *  - with --journal, every admitted run request is appended to a
 *    crash-safe NDJSON journal *before* it enters the scheduler, and a
 *    completion record (with the result's payload hash) follows when it
 *    resolves — `--replay` re-executes the journal deterministically
 *    (exit 0 bit-identical, 1 mismatch, 3 cleanly cancelled by a drain
 *    signal);
 *  - {"op":"ping"} is answered on the read loop with queue depth and
 *    in-flight count — the fleet router's health probe;
 *  - SIGTERM/SIGINT, EOF, or {"op":"shutdown"} stop admission, drain
 *    in-flight work (bounded by --drain-ms), flush the journal, and
 *    exit 0 after printing a final metrics summary.
 *
 * Diagnostics (startup banner, shutdown summary) go to stderr so stdout
 * stays a pure response stream.
 */
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>

#include <unistd.h>

#include "common/error.hpp"
#include "common/net.hpp"
#include "resilience/journal.hpp"
#include "serve/listen.hpp"
#include "serve/replay.hpp"
#include "serve/scheduler.hpp"
#include "serve/wire.hpp"

namespace
{

using namespace qa;
using namespace qa::serve;

std::atomic<int> g_signal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "the drain flag is set from a signal handler");

/**
 * The SIGTERM/SIGINT handler only records the signal. The read loops
 * see it on their next poll tick (serve::kServeTickMs) and fall through
 * to the graceful drain instead of dying mid-job.
 */
extern "C" void
onDrainSignal(int sig)
{
    g_signal = sig;
}

/** Serializes response lines from concurrent worker callbacks. */
class ResponseWriter
{
  public:
    void
    writeLine(const std::string& line)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::cout << line << "\n";
        std::cout.flush();
    }

  private:
    std::mutex mutex_;
};

int
parsePositiveArg(const std::string& flag, const char* value)
{
    if (value == nullptr) {
        std::cerr << "qassertd: " << flag << " needs a value\n";
        std::exit(2);
    }
    const int parsed = std::atoi(value);
    if (parsed <= 0) {
        std::cerr << "qassertd: " << flag << " must be positive, got '"
                  << value << "'\n";
        std::exit(2);
    }
    return parsed;
}

/**
 * `--replay PATH`: serve/replay.hpp does the work; this wrapper maps
 * the report to exit codes. Drain handlers are installed by main()
 * *before* this runs — the fix for the drain-mid-replay race: a
 * SIGTERM/SIGINT used to hit default dispositions and kill the process
 * mid-replay (possibly mid-line); now the replay loop polls the signal
 * flag between jobs and aborts cleanly, journal intact, exit code 3.
 */
int
replayJournalCli(const std::string& path)
{
    ReplayOptions options;
    options.cancel = &g_signal;
    ReplayReport report;
    try {
        report = replayJournal(path, std::cout, std::cerr, options);
    } catch (const UserError& err) {
        std::cerr << "qassertd: replay failed: " << err.what() << "\n";
        return 1;
    }
    switch (report.status) {
    case ReplayStatus::kOk: return 0;
    case ReplayStatus::kHashMismatch: return 1;
    case ReplayStatus::kInterrupted: return 3;
    }
    return 1;
}

} // namespace

int
main(int argc, char** argv)
{
    SchedulerOptions options;
    std::string journal_path;
    std::string replay_path;
    std::string listen_spec;
    std::string port_file;
    bool auto_assert = false;
    size_t max_line = size_t(1) << 20;
    size_t sync_every = 8;
    double drain_ms = 30000.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--workers") {
            options.workers = parsePositiveArg(arg, value);
            ++i;
        } else if (arg == "--queue") {
            options.queue_capacity =
                size_t(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--cache") {
            if (value == nullptr) {
                std::cerr << "qassertd: --cache needs a value\n";
                return 2;
            }
            options.cache_capacity = size_t(std::atoi(value)); // 0 = off
            ++i;
        } else if (arg == "--max-line") {
            max_line = size_t(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--auto-assert") {
            auto_assert = true;
        } else if (arg == "--journal") {
            if (value == nullptr) {
                std::cerr << "qassertd: --journal needs a path\n";
                return 2;
            }
            journal_path = value;
            ++i;
        } else if (arg == "--sync-every") {
            sync_every = size_t(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--drain-ms") {
            drain_ms = double(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--listen") {
            if (value == nullptr) {
                std::cerr << "qassertd: --listen needs HOST:PORT "
                             "(port 0 = ephemeral)\n";
                return 2;
            }
            listen_spec = value;
            ++i;
        } else if (arg == "--port-file") {
            if (value == nullptr) {
                std::cerr << "qassertd: --port-file needs a path\n";
                return 2;
            }
            port_file = value;
            ++i;
        } else if (arg == "--replay") {
            if (value == nullptr) {
                std::cerr << "qassertd: --replay needs a path\n";
                return 2;
            }
            replay_path = value;
            ++i;
        } else if (arg == "--help" || arg == "-h") {
            std::cerr
                << "usage: qassertd [--workers N] [--queue N] [--cache N]"
                   " [--max-line N]\n"
                   "                [--auto-assert] [--journal PATH]"
                   " [--sync-every N] [--drain-ms X]\n"
                   "                [--listen HOST:PORT] [--port-file "
                   "PATH]\n"
                   "       qassertd --replay PATH\n"
                   "NDJSON requests on stdin, one response line per "
                   "request on stdout (see DESIGN.md Sec. 9/10/11)\n";
            return 0;
        } else {
            std::cerr << "qassertd: unknown option '" << arg << "'\n";
            return 2;
        }
    }

    // Before replay, not just before serving: replay must see drain
    // signals too (clean abort between jobs instead of a default kill).
    std::signal(SIGTERM, onDrainSignal);
    std::signal(SIGINT, onDrainSignal);

    if (!replay_path.empty()) return replayJournalCli(replay_path);

    std::unique_ptr<resilience::Journal> journal;
    if (!journal_path.empty()) {
        try {
            resilience::JournalOptions jopts;
            jopts.sync_every = sync_every;
            journal = std::make_unique<resilience::Journal>(journal_path,
                                                            jopts);
        } catch (const UserError& err) {
            std::cerr << "qassertd: " << err.what() << "\n";
            return 2;
        }
    }

    Scheduler scheduler(options);
    LineService::Options service_options;
    service_options.auto_assert = auto_assert;
    LineService service(scheduler, journal.get(), service_options);
    // Outlives the drain below: completion callbacks still write to it.
    ResponseWriter out;

    if (!listen_spec.empty()) {
        // TCP front-end: same LineService, sockets instead of stdin.
        SocketServer::Options sopts;
        try {
            const net::Endpoint endpoint = net::parseEndpoint(listen_spec);
            sopts.host = endpoint.host;
            sopts.port = endpoint.port;
        } catch (const UserError& err) {
            std::cerr << "qassertd: " << err.what() << "\n";
            return 2;
        }
        sopts.max_line = max_line;
        SocketServer server(service, sopts);
        std::string error;
        if (!server.start(&error)) {
            std::cerr << "qassertd: " << error << "\n";
            return 2;
        }
        if (!port_file.empty()) {
            std::ofstream pf(port_file);
            pf << server.port() << "\n";
            if (!pf) {
                std::cerr << "qassertd: cannot write port file '"
                          << port_file << "'\n";
                return 2;
            }
        }
        std::cerr << "qassertd: listening on " << sopts.host << ":"
                  << server.port() << " (" << scheduler.workers()
                  << " workers" << (journal ? ", journaled" : "") << ")\n";
        server.run(&g_signal);
        std::cerr << "qassertd: listener stopped ("
                  << server.accepted() << " connections served)\n";
    } else {
        std::cerr << "qassertd: ready (" << scheduler.workers()
                  << " workers" << (journal ? ", journaled" : "")
                  << ")\n";

        net::LineReader reader(STDIN_FILENO, max_line, kServeTickMs);
        serveLines(
            service, reader,
            [&out](const std::string& response) { out.writeLine(response); },
            &g_signal);
    }

    if (g_signal != 0) {
        std::cerr << "qassertd: caught "
                  << (g_signal == SIGTERM ? "SIGTERM" : "SIGINT")
                  << "; draining (bound " << drain_ms << "ms)\n";
    }
    if (!scheduler.drainFor(drain_ms)) {
        std::cerr << "qassertd: drain timed out; cancelling remaining "
                     "jobs\n";
    }
    scheduler.stop();
    if (journal) {
        journal->sync();
        std::cerr << "qassertd: journal flushed ("
                  << journal->recordsWritten() << " records, "
                  << journal->syncsIssued() << " fsyncs)\n";
    }
    const MetricsSnapshot metrics = scheduler.metrics();
    std::cerr << metrics.str();
    return 0;
}
