/**
 * @file
 * In-process work on the generated jobs: the reference digests the
 * correctness gate compares the wire replies against, and the traced
 * replay that times each call into the public functions of each layer
 * (serve, acomp, backend, core) on one thread.
 *
 * Spans are kept in memory and written out at the end; the program
 * itself carries no tracing. A span's parent is the index of the span
 * that encloses it (-1 for a job's root span).
 */
#ifndef QA_PERF_TRACE_HPP
#define QA_PERF_TRACE_HPP

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace qa
{
namespace perf
{

/**
 * Digest of a reply's deterministic payload: the reply without `id`,
 * `queue_ms`, `exec_ms` and `cache_hit`, re-serialized with sorted keys.
 * Throws when the line is not a JSON object.
 */
std::string payloadDigest(const std::string& reply_line);

/**
 * executeJob + encodeResult for every job on `threads` threads; jobs
 * with identical request bodies share one execution. Returns the
 * payload digest per job id; a job that throws maps to "error:<what>".
 */
std::map<std::string, std::string>
referenceDigests(const std::vector<const GenJob*>& jobs, int threads);

struct Span
{
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::string job;
    std::map<std::string, double> attrs;
    /** Resolved backend where the span knows it; the job's class on a
     *  job's root span. */
    std::string kind;
};

struct TraceRecord
{
    std::vector<Span> spans;

    /** Executed jobs where the traced replica's digest differs from
     *  executeJob's (the decomposition would not be faithful). */
    size_t replica_mismatches = 0;

    size_t jobs = 0;
};

/**
 * Replay `jobs` in order on this thread through a ResultCache of
 * `cache_capacity` entries, timing decode, jobKey, cache lookup, the
 * layer calls executeJob makes, and encode. Every cache miss also runs
 * executeJob untraced (span "ref.execute_job") for the coverage and
 * overhead ratios and the replica check.
 */
TraceRecord tracedReplay(const std::vector<const GenJob*>& jobs,
                         size_t cache_capacity);

/** Spans as NDJSON, one object per line. */
void writeSpans(std::ostream& out, const std::vector<Span>& spans);

} // namespace perf
} // namespace qa

#endif // QA_PERF_TRACE_HPP
