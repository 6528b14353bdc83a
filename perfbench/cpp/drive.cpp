#include "drive.hpp"

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "fleet/process.hpp"

namespace qa
{
namespace perf
{

namespace
{

using Clock = std::chrono::steady_clock;

/** A reply still carrying its absolute receive time. */
struct Timed
{
    Clock::time_point at;
    std::string line;
};

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** How long the ping may take to come back. */
constexpr auto kPingTimeout = std::chrono::seconds(60);

/**
 * How long after the last send (warm-up) or the window end (timed run)
 * replies are still collected; replies missing then count as lost.
 */
constexpr auto kDrainGrace = std::chrono::seconds(10);

/** Spacing of the window's CPU samples (the metric slices). */
constexpr double kSliceMs = 1000.0;

// ---------------------------------------------------------------------
// /proc readers for the service process tree.
// ---------------------------------------------------------------------

struct ProcStat
{
    long ppid = 0;
    double cpu_ticks = 0.0; ///< utime + stime
};

bool
readStat(long pid, ProcStat* out)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text;
    if (!std::getline(in, text)) return false;
    // comm may hold spaces; every field after it follows the last ')'.
    const size_t close = text.rfind(')');
    if (close == std::string::npos) return false;
    std::istringstream rest(text.substr(close + 2));
    std::string state;
    long skip = 0;
    double utime = 0.0, stime = 0.0;
    rest >> state >> out->ppid;
    for (int field = 5; field <= 13; ++field) rest >> skip;
    rest >> utime >> stime;
    out->cpu_ticks = utime + stime;
    return bool(rest);
}

/** `root` and every live descendant. */
std::vector<long>
processTree(long root)
{
    std::map<long, std::vector<long>> children;
    for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
        const std::string name = entry.path().filename().string();
        if (name.empty() ||
            name.find_first_not_of("0123456789") != std::string::npos) {
            continue;
        }
        ProcStat stat;
        if (readStat(std::stol(name), &stat)) {
            children[stat.ppid].push_back(std::stol(name));
        }
    }
    std::vector<long> tree{root};
    for (size_t i = 0; i < tree.size(); ++i) {
        for (long child : children[tree[i]]) tree.push_back(child);
    }
    return tree;
}

double
treeCpuMs(const std::vector<long>& tree)
{
    const double tick_ms = 1000.0 / double(::sysconf(_SC_CLK_TCK));
    double total = 0.0;
    for (long pid : tree) {
        ProcStat stat;
        if (readStat(pid, &stat)) total += stat.cpu_ticks * tick_ms;
    }
    return total;
}

double
treePeakRssMb(const std::vector<long>& tree)
{
    double kib = 0.0;
    for (long pid : tree) {
        std::ifstream in("/proc/" + std::to_string(pid) + "/status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("VmHWM:", 0) == 0) {
                kib += std::stod(line.substr(6));
                break;
            }
        }
    }
    return kib / 1024.0;
}

// ---------------------------------------------------------------------
// The service process tree behind one pipe pair.
// ---------------------------------------------------------------------

std::vector<std::string>
serviceCommand(const WorkloadConfig& config, const std::string& bin_dir)
{
    const std::string qassertd = bin_dir + "/qassertd";
    const std::string workers = std::to_string(config.workers);
    if (config.shards == 0) return {qassertd, "--workers", workers};
    return {bin_dir + "/qa_router", "--shards",
            std::to_string(config.shards), "--shard-cmd",
            qassertd + " --workers " + workers};
}

/**
 * A spawned service with one reader thread that timestamps every reply
 * line into an inbox. The main thread sends and consumes.
 */
class Service
{
  public:
    Service(const WorkloadConfig& config, const std::string& bin_dir)
        : child_(serviceCommand(config, bin_dir)),
          reader_([this] { readLoop(); })
    {}

    ~Service() { stop(); }

    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    long pid() const { return long(child_.pid()); }

    void
    send(const std::string& line)
    {
        if (!child_.writeLine(line)) {
            throw std::runtime_error("service stdin closed");
        }
    }

    /** Next reply, or nothing once `deadline` passes or output ends. */
    std::optional<Timed>
    pop(Clock::time_point deadline)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait_until(lock, deadline,
                          [this] { return !inbox_.empty() || eof_; });
        if (inbox_.empty()) return std::nullopt;
        Timed next = std::move(inbox_.front());
        inbox_.pop_front();
        return next;
    }

    /** Send a ping and drop replies until the pong arrives; throws
     *  when it does not. */
    void
    ping()
    {
        send("{\"op\":\"ping\",\"id\":\"perf-ping\"}");
        const Clock::time_point deadline = Clock::now() + kPingTimeout;
        for (;;) {
            const std::optional<Timed> reply = pop(deadline);
            if (!reply) throw std::runtime_error("service did not answer ping");
            if (reply->line.find("\"pong\":true") != std::string::npos) return;
        }
    }

    /** Graceful shutdown; SIGKILL when the drain overruns. Idempotent. */
    void
    stop()
    {
        if (stopped_) return;
        stopped_ = true;
        child_.writeLine("{\"op\":\"shutdown\",\"id\":\"perf-shutdown\"}");
        child_.closeStdin();
        const auto deadline = Clock::now() + std::chrono::seconds(30);
        while (!child_.tryReap() && Clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        child_.forceReap();
        reader_.join();
    }

  private:
    void
    readLoop()
    {
        fleet::LineReader reader(child_.readFd(), size_t(64) << 20);
        std::string line;
        while (reader.next(&line) == fleet::LineReader::Status::kOk) {
            const Clock::time_point at = Clock::now();
            std::lock_guard<std::mutex> lock(mutex_);
            inbox_.push_back({at, std::move(line)});
            ready_.notify_one();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        eof_ = true;
        ready_.notify_one();
    }

    fleet::ChildProcess child_;
    std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<Timed> inbox_;
    bool eof_ = false;
    bool stopped_ = false;
    std::thread reader_; // last: starts after everything it uses
};

/** Closed loop over a fixed list; returns the replies that came back. */
std::vector<Timed>
runList(Service& service, const std::vector<GenJob>& jobs, int in_flight)
{
    std::vector<Timed> replies;
    size_t sent = 0;
    while (sent < jobs.size() && sent < size_t(in_flight)) {
        service.send(jobs[sent++].line);
    }
    Clock::time_point deadline = Clock::now() + kDrainGrace;
    while (replies.size() < jobs.size()) {
        std::optional<Timed> reply = service.pop(deadline);
        if (!reply) break;
        replies.push_back(std::move(*reply));
        if (sent < jobs.size()) {
            service.send(jobs[sent++].line);
            deadline = Clock::now() + kDrainGrace;
        }
    }
    return replies;
}

} // namespace

DriveRecord
drive(const WorkloadConfig& config, uint64_t seed, double seconds,
      const std::string& bin_dir, int setups)
{
    DriveRecord record;
    {
        JobStream warm(config, seed, "warmup");
        for (size_t i = 0; i < config.warmup_jobs; ++i) {
            record.warmup.push_back(warm.next());
        }
    }
    JobStream stream(config, seed, "timed");

    // Open loop: the whole schedule exists before the clock starts.
    const size_t open_count =
        config.loop == Loop::kOpen ? size_t(config.rate_per_s * seconds)
                                   : 0;
    for (size_t i = 0; i < open_count; ++i) record.jobs.push_back(stream.next());

    std::unique_ptr<Service> service;
    for (int round = 0; round < setups; ++round) {
        if (service) service->stop();
        service.reset();
        const Clock::time_point spawn = Clock::now();
        service = std::make_unique<Service>(config, bin_dir);
        service->ping();
        const std::vector<Timed> warm =
            runList(*service, record.warmup, config.in_flight);
        record.setup_s.push_back(msBetween(spawn, Clock::now()) / 1000.0);
        if (round + 1 == setups) {
            for (const Timed& t : warm) {
                record.warmup_replies.push_back({0.0, t.line});
            }
        }
    }

    const std::vector<long> tree = processTree(service->pid());
    record.processes = int(tree.size());
    const double cpu0 = treeCpuMs(tree);
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    auto keep = [&](Timed reply) {
        record.replies.push_back({msBetween(t0, reply.at),
                                  std::move(reply.line)});
    };
    record.cpu_samples.push_back({0.0, 0.0});
    auto sampleCpu = [&] {
        record.cpu_samples.push_back(
            {msBetween(t0, Clock::now()), treeCpuMs(tree) - cpu0});
    };
    // Called between sends or replies: one sample per slice boundary.
    auto sampleAtBoundary = [&] {
        const double now_ms = msBetween(t0, Clock::now());
        if (now_ms <= seconds * 1000.0 &&
            now_ms >= record.cpu_samples.back().first + kSliceMs) {
            sampleCpu();
        }
    };

    if (config.loop == Loop::kOpen) {
        // The sender keeps the schedule; replies pile up in the inbox.
        const double period_ms = 1000.0 / config.rate_per_s;
        for (size_t i = 0; i < record.jobs.size(); ++i) {
            const double due_ms = double(i) * period_ms;
            std::this_thread::sleep_until(
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(due_ms)));
            const double sent_ms = msBetween(t0, Clock::now());
            service->send(record.jobs[i].line);
            record.start_ms.push_back(due_ms);
            record.lag_ms.push_back(sent_ms - due_ms);
            sampleAtBoundary();
        }
        std::this_thread::sleep_until(end);
        sampleCpu();
        while (record.replies.size() < record.jobs.size()) {
            std::optional<Timed> reply = service->pop(end + kDrainGrace);
            if (!reply) break;
            keep(std::move(*reply));
        }
    } else {
        size_t outstanding = 0;
        auto sendNext = [&] {
            record.jobs.push_back(stream.next());
            record.start_ms.push_back(msBetween(t0, Clock::now()));
            service->send(record.jobs.back().line);
            ++outstanding;
        };
        for (int i = 0; i < config.in_flight; ++i) sendNext();
        bool closed = false;
        while (outstanding > 0) {
            std::optional<Timed> reply = service->pop(end + kDrainGrace);
            if (!reply) break;
            --outstanding;
            const bool open = reply->at < end;
            keep(std::move(*reply));
            if (open) {
                sendNext();
                sampleAtBoundary();
            } else if (!closed) {
                closed = true;
                sampleCpu();
            }
        }
        if (!closed) sampleCpu();
    }
    record.peak_rss_mb = treePeakRssMb(tree);
    service->stop();
    return record;
}

} // namespace perf
} // namespace qa
