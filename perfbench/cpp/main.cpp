/**
 * @file
 * qa_perf: the benchmark program behind perfbench/run.py.
 *
 *   qa_perf gen --workload W --seed N --count K
 *       Print the first K jobs of the timed stream, one per line:
 *       `<class>\t<request line>`.
 *   qa_perf run --workload W --seed N --seconds S --trace 0|1
 *               --bin DIR --out DIR
 *       Drive the service binaries in DIR over their NDJSON pipes (and,
 *       with --trace 1, replay the same jobs in-process with spans);
 *       write raw.json (and spans.ndjson) into the --out directory.
 */
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "drive.hpp"
#include "serve/json.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace
{

using namespace qa::perf;

std::map<std::string, std::string>
parseFlags(int argc, char** argv, int first)
{
    std::map<std::string, std::string> flags;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
            throw std::invalid_argument("bad argument '" + arg + "'");
        }
        flags[arg.substr(2)] = argv[++i];
    }
    return flags;
}

const std::string&
required(const std::map<std::string, std::string>& flags,
         const std::string& name)
{
    const auto it = flags.find(name);
    if (it == flags.end()) {
        throw std::invalid_argument("missing --" + name);
    }
    return it->second;
}

int
generate(const std::map<std::string, std::string>& flags)
{
    const WorkloadConfig& config = workloadConfig(required(flags, "workload"));
    JobStream stream(config, std::stoull(required(flags, "seed")), "timed");
    const long count = std::stol(required(flags, "count"));
    for (long i = 0; i < count; ++i) {
        const GenJob job = stream.next();
        std::cout << job.klass << "\t" << job.line << "\n";
    }
    return 0;
}

std::string
numbers(const std::vector<double>& values)
{
    std::ostringstream oss;
    oss << "[";
    for (size_t i = 0; i < values.size(); ++i) {
        oss << (i ? "," : "") << qa::serve::jsonNumber(values[i]);
    }
    oss << "]";
    return oss.str();
}

/** Pass/fail tally of one correctness check. */
struct Check
{
    size_t jobs = 0;
    size_t failed = 0;
    std::string detail;
};

/** Whether a reply's slot error rates meet the job's expectation. */
bool
meetsExpectation(const Expectation& e, const qa::serve::JsonValue& reply,
                 int shots)
{
    std::vector<double> rates;
    if (const auto* list = reply.find("slot_error_rate")) {
        for (const auto& rate : list->asArray()) {
            rates.push_back(rate.asNumber());
        }
    }
    double max_rate = 0.0;
    for (double r : rates) max_rate = std::max(max_rate, r);
    switch (e.kind) {
      case Expectation::Kind::kNone: return true;
      case Expectation::Kind::kNoFlags: return max_rate == 0.0;
      case Expectation::Kind::kFlags: return max_rate > 0.0;
      case Expectation::Kind::kRate: {
        // Five binomial standard deviations around the exact rate.
        const double sigma = std::sqrt(e.rate * (1.0 - e.rate) / shots);
        return !rates.empty() && std::abs(rates[0] - e.rate) <= 5.0 * sigma;
      }
    }
    return false;
}

/** Per-reply facts the metrics need, in reply order. */
struct WireStats
{
    std::vector<double> latency_ms, recv_ms, queue_ms, exec_ms, outside_ms;
    size_t ok = 0, errors = 0, duplicates = 0;
    size_t cache_hits = 0;
};

int
runBenchmark(const std::map<std::string, std::string>& flags)
{
    using qa::serve::JsonValue;
    const WorkloadConfig& config = workloadConfig(required(flags, "workload"));
    const uint64_t seed = std::stoull(required(flags, "seed"));
    const double seconds = std::stod(required(flags, "seconds"));
    const bool trace = required(flags, "trace") == "1";
    const std::string out_dir = required(flags, "out");
    // setup_s is the median of three start-ups; a traced run reports no
    // end-to-end metrics, so one start-up will do.
    const int setups = trace ? 1 : 3;
    const int nproc = int(std::max(1u, std::thread::hardware_concurrency()));

    DriveRecord record =
        drive(config, seed, seconds, required(flags, "bin"), setups);

    std::map<std::string, Check> checks;
    std::map<std::string, const GenJob*> by_id;
    std::map<std::string, size_t> index_of;
    for (const GenJob& job : record.warmup) by_id[job.id] = &job;
    for (size_t i = 0; i < record.jobs.size(); ++i) {
        by_id[record.jobs[i].id] = &record.jobs[i];
        index_of[record.jobs[i].id] = i;
    }

    // One pass over every reply: status, shots, paper verdicts, digests.
    std::map<std::string, std::string> wire_digests;
    std::map<std::string, int> answers;
    WireStats wire;
    auto inspect = [&](const Reply& reply, bool timed) {
        const JsonValue parsed = JsonValue::parse(reply.line);
        const std::string id = parsed.stringOr("id", "");
        const auto job = by_id.find(id);
        if (job == by_id.end()) {
            ++checks["wire.known_id"].failed;
            return;
        }
        if (++answers[id] > 1) {
            ++wire.duplicates;
            return;
        }
        wire_digests[id] = qa::perf::payloadDigest(reply.line);
        ++checks["wire.status_ok"].jobs;
        if (parsed.stringOr("status", "") != "ok") {
            ++checks["wire.status_ok"].failed;
            checks["wire.status_ok"].detail = reply.line.substr(0, 300);
            if (timed) ++wire.errors;
            return;
        }
        ++checks["wire.shots"].jobs;
        if (parsed.intOr("shots", -1) != job->second->shots) {
            ++checks["wire.shots"].failed;
        }
        const Expectation& e = job->second->expect;
        if (!e.check.empty()) {
            Check& c = checks["paper." + e.check];
            ++c.jobs;
            if (!meetsExpectation(e, parsed, job->second->shots)) {
                ++c.failed;
                c.detail = id;
            }
        }
        if (!timed) return;
        ++wire.ok;
        if (parsed.boolOr("cache_hit", false)) ++wire.cache_hits;
        const double latency =
            reply.recv_ms - record.start_ms[index_of[id]];
        const double queue = parsed.numberOr("queue_ms", 0.0);
        const double exec = parsed.numberOr("exec_ms", 0.0);
        wire.latency_ms.push_back(latency);
        wire.recv_ms.push_back(reply.recv_ms);
        wire.queue_ms.push_back(queue);
        wire.exec_ms.push_back(exec);
        wire.outside_ms.push_back(latency - queue - exec);
    };
    for (const Reply& reply : record.warmup_replies) inspect(reply, false);
    for (const Reply& reply : record.replies) inspect(reply, true);
    size_t lost = 0;
    for (const GenJob& job : record.jobs) lost += answers.count(job.id) == 0;
    for (const GenJob& job : record.warmup) {
        lost += answers.count(job.id) == 0;
    }
    checks["wire.exactly_once"].jobs = record.jobs.size() + record.warmup.size();
    checks["wire.exactly_once"].failed = lost + wire.duplicates;

    // Reference digests: executeJob + encodeResult in-process, for every
    // warm-up job and every timed job on traced runs, and for every
    // fourth timed job (by index, so the same jobs for any seed) on
    // untraced runs, which keeps the re-execution well under the window.
    std::vector<const GenJob*> all;
    for (const GenJob& job : record.warmup) all.push_back(&job);
    const size_t stride = trace ? 1 : 4;
    for (size_t i = 0; i < record.jobs.size(); i += stride) {
        all.push_back(&record.jobs[i]);
    }
    const auto reference = referenceDigests(all, nproc);
    Check& digest = checks["digest.payload"];
    for (const GenJob* job : all) {
        const auto it = wire_digests.find(job->id);
        if (it == wire_digests.end()) continue; // counted as lost above
        ++digest.jobs;
        if (it->second != reference.at(job->id)) {
            ++digest.failed;
            digest.detail = job->id;
        }
    }

    std::ofstream raw(out_dir + "/raw.json");
    if (trace) {
        std::vector<const GenJob*> replay;
        for (const GenJob& job : record.warmup) replay.push_back(&job);
        for (size_t i = 0; i < record.jobs.size() && i < config.trace_jobs;
             ++i) {
            replay.push_back(&record.jobs[i]);
        }
        const TraceRecord traced = tracedReplay(
            replay, 512 * size_t(std::max(config.shards, 1)));
        checks["trace.replica_digest"] = {traced.jobs,
                                          traced.replica_mismatches, ""};
        std::ofstream spans(out_dir + "/spans.ndjson");
        writeSpans(spans, traced.spans);
    }

    raw << "{\"workload\":\"" << config.name << "\",\"seed\":" << seed
        << ",\"seconds\":" << qa::serve::jsonNumber(seconds)
        << ",\"loop\":\"" << (config.loop == Loop::kOpen ? "open" : "closed")
        << "\",\"rate_per_s\":" << qa::serve::jsonNumber(config.rate_per_s)
        << ",\"in_flight\":" << config.in_flight
        << ",\"shards\":" << config.shards
        << ",\"workers\":" << config.workers
        << ",\"processes\":" << record.processes
        << ",\"nproc\":" << nproc
        << ",\"build_type\":\"" << QA_PERF_BUILD_TYPE << "\""
        << ",\"compiler\":\"" << QA_PERF_COMPILER << "\""
        << ",\"setup_s\":" << numbers(record.setup_s)
        << ",\"peak_rss_mb\":" << qa::serve::jsonNumber(record.peak_rss_mb)
        << ",\"sent\":" << record.jobs.size()
        << ",\"ok\":" << wire.ok
        << ",\"errors\":" << wire.errors << ",\"lost\":" << lost
        << ",\"duplicates\":" << wire.duplicates
        << ",\"cache_hits\":" << wire.cache_hits
        << ",\"latency_ms\":" << numbers(wire.latency_ms)
        << ",\"recv_ms\":" << numbers(wire.recv_ms)
        << ",\"queue_ms\":" << numbers(wire.queue_ms)
        << ",\"exec_ms\":" << numbers(wire.exec_ms)
        << ",\"outside_ms\":" << numbers(wire.outside_ms)
        << ",\"lag_ms\":" << numbers(record.lag_ms) << ",\"cpu_samples\":[";
    for (size_t i = 0; i < record.cpu_samples.size(); ++i) {
        raw << (i ? "," : "") << "["
            << qa::serve::jsonNumber(record.cpu_samples[i].first) << ","
            << qa::serve::jsonNumber(record.cpu_samples[i].second) << "]";
    }
    raw << "],\"checks\":{";
    bool first = true;
    for (const auto& [name, check] : checks) {
        raw << (first ? "" : ",") << "\"" << name << "\":{\"jobs\":"
            << check.jobs << ",\"failed\":" << check.failed
            << ",\"detail\":\"" << qa::serve::jsonEscape(check.detail)
            << "\"}";
        first = false;
    }
    raw << "}}\n";
    return raw ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::cerr << "usage: qa_perf gen|run --flag value ...\n";
        return 2;
    }
    const std::string command = argv[1];
    try {
        const auto flags = parseFlags(argc, argv, 2);
        if (command == "gen") return generate(flags);
        if (command == "run") return runBenchmark(flags);
        std::cerr << "qa_perf: unknown command '" << command << "'\n";
        return 2;
    } catch (const std::exception& err) {
        std::cerr << "qa_perf: " << err.what() << "\n";
        return 2;
    }
}
