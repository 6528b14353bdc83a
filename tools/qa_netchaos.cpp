/**
 * @file
 * qa_netchaos: a deterministic network-fault-injection TCP proxy.
 *
 * Sits between a qa_router and a `qassertd --listen` shard (or any
 * TCP pair) and applies a seeded NetFaultPlan
 * (src/resilience/netfault.hpp) to the bytes crossing it: connection
 * resets, a global partition window, slow-loris dribbling, partial
 * writes, and black holes. The router on the near side must keep every
 * admitted job resolving exactly once through all of it — that is what
 * scripts/netfleet_smoke.sh asserts.
 *
 * Usage:
 *   qa_netchaos --listen HOST:PORT --target HOST:PORT
 *               [--plan "reset:every=5;partition:at=3000,dur=5000"]
 *               [--seed N] [--port-file PATH]
 *
 * Notes:
 *  - per-connection and per-chunk fault decisions are pure functions of
 *    (seed, connection index[, chunk index]) — rerunning the same plan
 *    against the same connection sequence injects the same faults;
 *  - the partition window is measured from proxy start: connections
 *    alive at its left edge are reset, connections arriving inside it
 *    are black-holed until the right edge, then reset;
 *  - "reset" means RST, not FIN (SO_LINGER 0 close), so the near side
 *    exercises its hard-error path, not its clean-EOF path;
 *  - exits on SIGTERM/SIGINT, resetting every proxied connection.
 */
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/net.hpp"
#include "resilience/netfault.hpp"

namespace
{

using namespace qa;

std::atomic<int> g_signal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "the drain flag is set from a signal handler");

extern "C" void
onSignal(int sig)
{
    g_signal = sig;
}

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** RST close: linger time 0 discards the send queue and sends RST. */
void
resetClose(int fd)
{
    if (fd < 0) return;
    struct linger lin;
    lin.l_onoff = 1;
    lin.l_linger = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
    ::close(fd);
}

/** One proxied connection (client fd + upstream fd + pump threads). */
struct ProxyConn
{
    uint64_t index = 0;
    int client_fd = -1;
    int target_fd = -1;
    resilience::NetConnFaults faults;
    double blackhole_until_ms = 0.0; ///< Swallow until (proxy clock).
    std::atomic<bool> dead{false};
    std::atomic<int> pumps_done{0};
    int pumps = 2;
    std::atomic<uint64_t> bytes{0}; ///< Total across both directions.
    std::thread up;                 ///< client -> target
    std::thread down;               ///< target -> client

    void
    kill()
    {
        if (dead.exchange(true)) return;
        // shutdown first so pump threads blocked in poll/read wake;
        // the RST close happens in the joiner (fd stays valid while
        // the pumps might still touch it).
        net::shutdownBoth(client_fd);
        net::shutdownBoth(target_fd);
    }

    /** Both pump threads have returned (clean EOF or killed). */
    bool
    finished() const
    {
        return pumps_done.load() >= pumps;
    }

    ~ProxyConn()
    {
        resetClose(client_fd);
        resetClose(target_fd);
    }
};

struct ProxyState
{
    resilience::NetFaultPlan plan;
    std::chrono::steady_clock::time_point start;
    std::atomic<uint64_t> conns_faulted{0};
    std::atomic<uint64_t> resets{0};
    std::atomic<uint64_t> partial_writes{0};
};

/**
 * Pump one direction, applying slow-loris chunking, partial writes,
 * byte-budget resets, and the blackhole swallow.
 */
void
pump(ProxyState& state, const std::shared_ptr<ProxyConn>& conn,
     int from_fd, int to_fd)
{
    const resilience::NetConnFaults& faults = conn->faults;
    uint64_t chunk_index = conn->index << 20; // per-conn chunk domain
    uint64_t forwarded = 0;
    char buffer[16384];

    // Blackhole: swallow silently until the deadline, then reset.
    if (faults.blackhole) {
        while (!conn->dead.load() && g_signal == 0) {
            if (msSince(state.start) >= conn->blackhole_until_ms) break;
            if (net::pollReadable(from_fd, 50.0)) {
                const ssize_t n = ::read(from_fd, buffer, sizeof buffer);
                if (n == 0) break;
                if (n < 0 && errno != EINTR && errno != EAGAIN &&
                    errno != EWOULDBLOCK) {
                    break;
                }
            }
        }
        state.resets.fetch_add(1);
        conn->kill();
        return;
    }

    while (!conn->dead.load() && g_signal == 0) {
        if (!net::pollReadable(from_fd, 100.0)) continue;
        const ssize_t n = ::read(from_fd, buffer, sizeof buffer);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK) {
                continue;
            }
            break;
        }
        if (n == 0) break;

        size_t off = 0;
        while (off < size_t(n) && !conn->dead.load()) {
            size_t len = size_t(n) - off;
            const bool dribble =
                faults.slowloris &&
                (faults.slowloris_bytes == 0 ||
                 forwarded < faults.slowloris_bytes);
            if (dribble) {
                len = std::min<size_t>(len, faults.slowloris_chunk);
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        faults.slowloris_delay_ms));
            }
            size_t first = len;
            if (len > 1 &&
                state.plan.partialWrite(conn->index, chunk_index)) {
                first = len / 2; // two short writes instead of one
                state.partial_writes.fetch_add(1);
            }
            chunk_index++;
            if (!net::writeAllBounded(to_fd, buffer + off, first,
                                      30000.0)) {
                conn->kill();
                return;
            }
            if (first < len &&
                !net::writeAllBounded(to_fd, buffer + off + first,
                                      len - first, 30000.0)) {
                conn->kill();
                return;
            }
            off += len;
            forwarded += len;
            const uint64_t total = conn->bytes.fetch_add(len) + len;
            if (faults.reset && total >= faults.reset_after_bytes) {
                state.resets.fetch_add(1);
                conn->kill();
                return;
            }
        }
    }
    // Clean EOF from one side: half-close the other so NDJSON drains.
    net::shutdownWrite(to_fd);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string listen_spec;
    std::string target_spec;
    std::string plan_text;
    std::string port_file;
    uint64_t seed = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        auto need = [&](const char* what) {
            if (value == nullptr) {
                std::cerr << "qa_netchaos: " << arg << " needs " << what
                          << "\n";
                std::exit(2);
            }
            ++i;
            return std::string(value);
        };
        if (arg == "--listen") listen_spec = need("HOST:PORT");
        else if (arg == "--target") target_spec = need("HOST:PORT");
        else if (arg == "--plan") plan_text = need("a fault plan");
        else if (arg == "--seed") seed = std::strtoull(
                 need("a seed").c_str(), nullptr, 10);
        else if (arg == "--port-file") port_file = need("a path");
        else if (arg == "--help" || arg == "-h") {
            std::cerr
                << "usage: qa_netchaos --listen HOST:PORT --target "
                   "HOST:PORT\n"
                   "                   [--plan PLAN] [--seed N] "
                   "[--port-file PATH]\n"
                   "plan grammar: reset:every=K[,after_bytes=N];\n"
                   "              partition:at=MS,dur=MS;\n"
                   "              slowloris:every=K,delay_ms=D[,chunk=C]"
                   "[,bytes=N];\n"
                   "              partial:p=P; blackhole:every=K,dur=MS\n";
            return 0;
        } else {
            std::cerr << "qa_netchaos: unknown option '" << arg << "'\n";
            return 2;
        }
    }
    if (listen_spec.empty() || target_spec.empty()) {
        std::cerr << "qa_netchaos: --listen and --target are required\n";
        return 2;
    }

    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = onSignal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
    std::signal(SIGPIPE, SIG_IGN);

    ProxyState state;
    net::Endpoint listen_ep;
    net::Endpoint target_ep;
    try {
        listen_ep = net::parseEndpoint(listen_spec);
        target_ep = net::parseEndpoint(target_spec);
        state.plan = resilience::NetFaultPlan::parse(plan_text, seed);
    } catch (const qa::UserError& err) {
        std::cerr << "qa_netchaos: " << err.what() << "\n";
        return 2;
    }

    int bound_port = 0;
    std::string error;
    const int listen_fd = net::tcpListen(listen_ep.host, listen_ep.port,
                                         16, &bound_port, &error);
    if (listen_fd < 0) {
        std::cerr << "qa_netchaos: " << error << "\n";
        return 2;
    }
    if (!port_file.empty()) {
        std::ofstream pf(port_file);
        pf << bound_port << "\n";
        if (!pf) {
            std::cerr << "qa_netchaos: cannot write port file '"
                      << port_file << "'\n";
            return 2;
        }
    }
    state.start = std::chrono::steady_clock::now();
    std::cerr << "qa_netchaos: " << listen_ep.host << ":" << bound_port
              << " -> " << target_ep.str() << " ["
              << state.plan.describe() << "]\n";

    std::vector<std::shared_ptr<ProxyConn>> conns;
    uint64_t next_index = 0;
    bool partition_tripped = false;

    while (g_signal == 0) {
        // Partition left edge: reset everything alive, exactly once.
        const double now_ms = msSince(state.start);
        if (state.plan.hasPartition() && !partition_tripped &&
            now_ms >= state.plan.partitionAtMs()) {
            partition_tripped = true;
            size_t killed = 0;
            for (const auto& conn : conns) {
                if (!conn->dead.load()) {
                    conn->kill();
                    killed++;
                }
            }
            state.resets.fetch_add(killed);
            std::cerr << "qa_netchaos: partition open (" << killed
                      << " connections reset)\n";
        }

        const int client_fd = net::tcpAccept(listen_fd, 100.0);
        if (client_fd == -2) break;
        // Reap finished connections as we go.
        for (size_t i = 0; i < conns.size();) {
            if (conns[i]->finished()) {
                if (conns[i]->up.joinable()) conns[i]->up.join();
                if (conns[i]->down.joinable()) conns[i]->down.join();
                conns.erase(conns.begin() + long(i));
            } else {
                ++i;
            }
        }
        if (client_fd == -1) continue;

        auto conn = std::make_shared<ProxyConn>();
        conn->index = next_index++;
        conn->client_fd = client_fd;
        conn->faults = state.plan.connFaults(conn->index);

        if (conn->faults.blackhole) {
            conn->blackhole_until_ms =
                msSince(state.start) + conn->faults.blackhole_dur_ms;
        }
        if (state.plan.inPartition(msSince(state.start))) {
            // Arrived inside the window: black-hole until its end.
            conn->faults.blackhole = true;
            conn->blackhole_until_ms = state.plan.partitionEndMs();
        }

        if (!conn->faults.blackhole) {
            conn->target_fd = net::tcpConnect(target_ep.host,
                                              target_ep.port, 1000.0);
            if (conn->target_fd < 0) {
                std::cerr << "qa_netchaos: upstream connect failed\n";
                resetClose(conn->client_fd);
                conn->client_fd = -1;
                continue;
            }
        }
        if (conn->faults.any()) state.conns_faulted.fetch_add(1);

        auto self = conn; // keep alive for both pumps
        conn->pumps = conn->faults.blackhole ? 1 : 2;
        conn->up = std::thread([&state, self] {
            pump(state, self, self->client_fd, self->target_fd);
            self->pumps_done.fetch_add(1);
        });
        if (!conn->faults.blackhole) {
            conn->down = std::thread([&state, self] {
                pump(state, self, self->target_fd, self->client_fd);
                self->pumps_done.fetch_add(1);
            });
        }
        conns.push_back(std::move(conn));
    }

    for (const auto& conn : conns) conn->kill();
    for (const auto& conn : conns) {
        if (conn->up.joinable()) conn->up.join();
        if (conn->down.joinable()) conn->down.join();
    }
    net::closeQuiet(listen_fd);
    std::cerr << "qa_netchaos: done (" << next_index << " connections, "
              << state.conns_faulted.load() << " faulted, "
              << state.resets.load() << " resets, "
              << state.partial_writes.load() << " partial writes)\n";
    return 0;
}
