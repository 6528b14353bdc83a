/**
 * @file
 * Seeded job streams for the three service workloads. A stream is a
 * pure function of (workload, seed, phase): the same arguments give a
 * byte-identical sequence of request lines. The service only ever sees
 * the request line; the class label and the expected assertion verdict
 * stay on the client side for the correctness gate.
 */
#ifndef QA_PERF_WORKLOADS_HPP
#define QA_PERF_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace qa
{
namespace perf
{

/** How the client paces requests. */
enum class Loop
{
    kOpen,  ///< Fixed schedule, latency from the due time.
    kClosed ///< At most `in_flight` outstanding, latency from the send.
};

/** Static shape of one workload: pacing, service topology, sizes. */
struct WorkloadConfig
{
    std::string name;
    Loop loop = Loop::kClosed;

    /** Open loop: requests per second. */
    double rate_per_s = 0.0;

    /** Outstanding requests on the closed loop and during warm-up. */
    int in_flight = 1;

    /** 0: one qassertd; N > 0: qa_router over N local pipe shards. */
    int shards = 0;

    /** Worker threads per qassertd process. */
    int workers = 1;

    /** Requests sent closed-loop after start-up, inside setup_s. */
    size_t warmup_jobs = 8;

    /** Requests of the timed stream the traced replay covers. */
    size_t trace_jobs = 400;
};

/** Config by name; throws std::invalid_argument on an unknown name. */
const WorkloadConfig& workloadConfig(const std::string& name);

/** What the response of a job must show besides status and shots. */
struct Expectation
{
    /** Paper-check group the job belongs to ("" = no paper check). */
    std::string check;

    enum class Kind
    {
        kNone,    ///< No verdict check (noisy or approximate jobs).
        kNoFlags, ///< Every slot error rate is exactly 0.
        kFlags,   ///< Some slot error rate is above 0.
        kRate     ///< Slot 0's error rate is near `rate`.
    } kind = Kind::kNone;

    double rate = 0.0;
};

/** One generated request. */
struct GenJob
{
    std::string id;
    std::string klass; ///< Class label (never sent to the service).
    std::string line;  ///< The NDJSON request line.
    int shots = 0;
    Expectation expect;
};

/** Deterministic job source; see the file comment. */
class JobStream
{
  public:
    /** `phase` separates the warm-up and timed streams of one seed. */
    JobStream(const WorkloadConfig& config, uint64_t seed,
              const std::string& phase);
    ~JobStream();

    JobStream(const JobStream&) = delete;
    JobStream& operator=(const JobStream&) = delete;

    /** The next job; ids are `<phase initial><index>`. */
    GenJob next();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace perf
} // namespace qa

#endif // QA_PERF_WORKLOADS_HPP
