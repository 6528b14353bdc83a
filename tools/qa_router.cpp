/**
 * @file
 * qa_router: fault-tolerant front-end for a sharded qassertd fleet.
 *
 * Speaks the same NDJSON wire protocol as a single qassertd on
 * stdin/stdout, but behind it fork/execs N qassertd shards, routes each
 * job by consistent-hashing its 128-bit structural jobKey (cache
 * affinity: identical circuit structure always lands on the same shard
 * while it is up), probes shard health, fails over a dead shard's
 * keyspace to its ring successors, respawns crashed shards with fresh
 * generation-suffixed journals, and guarantees each admitted job is
 * answered exactly once. See src/fleet/router.hpp for the full
 * contract and DESIGN.md Sec. 13 for the topology.
 *
 * Usage:
 *   qa_router --shards N [--shard-cmd "qassertd --workers 1 ..."]
 *             [--journal-dir DIR] [--vnodes N] [--probe-ms X]
 *             [--ping-timeout-ms X] [--retries N] [--no-respawn]
 *             [--drain-ms X] [--max-line N]
 *   qa_router --connect host:port,host:port,...
 *             [--connect-timeout-ms X] [--write-timeout-ms X]
 *             [--idle-timeout-ms X] [... same routing flags]
 *
 * --connect switches the fleet to remote TCP shards (qassertd
 * --listen daemons); the shard count is the endpoint count and
 * "respawn" means re-dialing a dead endpoint.
 *
 * Extra ops beyond the qassertd set:
 *   {"op":"fleet_status","id":"s1"}  -> per-shard health/counters; the
 *                                       "metrics" op returns the same.
 *
 * SIGTERM/SIGINT, EOF, or {"op":"shutdown"} stop admission, wait for
 * pending jobs (bounded by --drain-ms), drain the shards gracefully,
 * and exit 0. Diagnostics go to stderr; stdout is a pure response
 * stream.
 */
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/error.hpp"
#include "common/net.hpp"
#include "fleet/router.hpp"
#include "serve/listen.hpp"
#include "serve/wire.hpp"

namespace
{

using namespace qa;

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

int
parsePositiveArg(const std::string& flag, const char* value)
{
    if (value == nullptr) {
        std::cerr << "qa_router: " << flag << " needs a value\n";
        std::exit(2);
    }
    const int parsed = std::atoi(value);
    if (parsed <= 0) {
        std::cerr << "qa_router: " << flag << " must be positive, got '"
                  << value << "'\n";
        std::exit(2);
    }
    return parsed;
}

/** Whitespace-split a --shard-cmd string into argv tokens. */
std::vector<std::string>
splitCommand(const std::string& command)
{
    std::vector<std::string> argv;
    std::istringstream in(command);
    std::string token;
    while (in >> token) argv.push_back(token);
    return argv;
}

/** Comma-split a --connect endpoint list. */
std::vector<std::string>
splitEndpoints(const std::string& list)
{
    std::vector<std::string> endpoints;
    std::istringstream in(list);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (!item.empty()) endpoints.push_back(item);
    }
    return endpoints;
}

} // namespace

int
main(int argc, char** argv)
{
    fleet::RouterOptions options;
    std::string shard_cmd = "qassertd";
    double drain_ms = 30000.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--shards") {
            options.shards = size_t(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--shard-cmd") {
            if (value == nullptr) {
                std::cerr << "qa_router: --shard-cmd needs a value\n";
                return 2;
            }
            shard_cmd = value;
            ++i;
        } else if (arg == "--journal-dir") {
            if (value == nullptr) {
                std::cerr << "qa_router: --journal-dir needs a path\n";
                return 2;
            }
            options.journal_dir = value;
            ++i;
        } else if (arg == "--vnodes") {
            options.vnodes = size_t(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--probe-ms") {
            options.probe_interval_ms = double(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--ping-timeout-ms") {
            options.ping_timeout_ms = double(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--retries") {
            options.retry.max_attempts = parsePositiveArg(arg, value);
            ++i;
        } else if (arg == "--no-respawn") {
            options.respawn = false;
        } else if (arg == "--connect") {
            if (value == nullptr) {
                std::cerr << "qa_router: --connect needs "
                             "host:port[,host:port...]\n";
                return 2;
            }
            options.connect = splitEndpoints(value);
            if (options.connect.empty()) {
                std::cerr << "qa_router: --connect list is empty\n";
                return 2;
            }
            ++i;
        } else if (arg == "--connect-timeout-ms") {
            options.tcp.connect_timeout_ms =
                double(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--write-timeout-ms") {
            options.tcp.write_timeout_ms =
                double(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--idle-timeout-ms") {
            options.tcp.read_idle_timeout_ms =
                double(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--drain-ms") {
            drain_ms = double(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--max-line") {
            options.max_line = size_t(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--help" || arg == "-h") {
            std::cerr
                << "usage: qa_router --shards N [--shard-cmd CMD]"
                   " [--journal-dir DIR]\n"
                   "                 [--vnodes N] [--probe-ms X]"
                   " [--ping-timeout-ms X]\n"
                   "                 [--retries N] [--no-respawn]"
                   " [--drain-ms X] [--max-line N]\n"
                   "       qa_router --connect host:port,...\n"
                   "                 [--connect-timeout-ms X]"
                   " [--write-timeout-ms X]\n"
                   "                 [--idle-timeout-ms X]\n"
                   "NDJSON requests on stdin, one response line per "
                   "request on stdout;\n"
                   "{\"op\":\"fleet_status\"} reports per-shard health "
                   "(see DESIGN.md Sec. 13/15)\n";
            return 0;
        } else {
            std::cerr << "qa_router: unknown option '" << arg << "'\n";
            return 2;
        }
    }
    options.shard_command = splitCommand(shard_cmd);
    if (options.shard_command.empty()) {
        std::cerr << "qa_router: --shard-cmd must not be empty\n";
        return 2;
    }

    // A shard dying between a liveness check and a pipe write must not
    // SIGPIPE-kill the router (ChildProcess sets this too; being
    // explicit in main documents the requirement).
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGTERM, onDrainSignal);
    std::signal(SIGINT, onDrainSignal);

    // FleetRouter serializes its own emit calls; the lock also orders
    // them against the overflow rejections the stdin loop writes.
    std::mutex out_mutex;
    const auto writeOut = [&out_mutex](const std::string& line) {
        std::lock_guard<std::mutex> lock(out_mutex);
        std::cout << line << "\n";
        std::cout.flush();
    };
    fleet::FleetRouter router(options, writeOut);
    try {
        router.start();
    } catch (const UserError& err) {
        std::cerr << "qa_router: failed to start fleet: " << err.what()
                  << "\n";
        return 2;
    }
    const size_t nshards =
        options.connect.empty() ? options.shards : options.connect.size();
    std::cerr << "qa_router: ready (" << nshards
              << (options.connect.empty() ? " shard(s), " : " remote shard(s), ")
              << options.vnodes << " vnodes each"
              << (options.journal_dir.empty()
                      ? std::string()
                      : ", journals in " + options.journal_dir)
              << ")\n";

    net::LineReader reader(STDIN_FILENO, options.max_line,
                           serve::kServeTickMs);
    std::string line;
    while (g_signal == 0) {
        const net::LineReader::Status read = reader.next(&line);
        if (read == net::LineReader::Status::kTimeout) continue;
        if (read == net::LineReader::Status::kEof) break;
        if (read == net::LineReader::Status::kOverflow) {
            writeOut(serve::encodeOverflow(options.max_line));
            continue;
        }
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        if (!router.handleLine(line)) break; // shutdown op
    }

    if (g_signal != 0) {
        std::cerr << "qa_router: caught "
                  << (g_signal == SIGTERM ? "SIGTERM" : "SIGINT")
                  << "; draining (bound " << drain_ms << "ms)\n";
    }
    if (!router.drainFor(drain_ms)) {
        std::cerr << "qa_router: drain timed out; failing remaining "
                     "jobs\n";
    }
    router.stop();

    const fleet::FleetCounters counters = router.counters();
    std::cerr << "qa_router: done — admitted " << counters.admitted
              << ", ok " << counters.resolved_ok << ", error "
              << counters.resolved_error << ", retried "
              << counters.retried << ", failovers " << counters.failovers
              << ", strays " << counters.strays << ", no_shard "
              << counters.no_shard << "\n";
    return 0;
}
