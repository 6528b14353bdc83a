/**
 * @file
 * The end-to-end run: spawn the real service process tree, warm it up,
 * pace the timed job stream over its NDJSON pipe (open or closed loop),
 * and record every reply with its receive time, plus the tree's CPU
 * time and peak resident memory. Nothing here parses replies; the
 * checks and metrics are computed afterwards from the record.
 */
#ifndef QA_PERF_DRIVE_HPP
#define QA_PERF_DRIVE_HPP

#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace qa
{
namespace perf
{

/** One reply line and when it arrived (ms after the window start). */
struct Reply
{
    double recv_ms = 0.0;
    std::string line;
};

/** Everything one end-to-end run measured. */
struct DriveRecord
{
    /** Spawn-to-ready seconds (ping answered, warm-up done), per setup. */
    std::vector<double> setup_s;

    /** The warm-up jobs (the same list for every setup). */
    std::vector<GenJob> warmup;

    /** Warm-up replies of the setup whose service ran the window. */
    std::vector<Reply> warmup_replies;

    /** The timed jobs, in send order, and the replies to them. */
    std::vector<GenJob> jobs;
    std::vector<Reply> replies;

    /**
     * When each timed job's latency clock started (ms after the window
     * start): its due time on the open loop, its send time on the
     * closed loop.
     */
    std::vector<double> start_ms;

    /** Open loop only: how late each request was sent, in ms. */
    std::vector<double> lag_ms;

    /**
     * The tree's cumulative CPU ms, sampled about once per second of the
     * window: (ms after the window start, CPU ms since the window start).
     * Consecutive samples bound the slices run.py takes medians over.
     */
    std::vector<std::pair<double, double>> cpu_samples;

    /** Sum of VmHWM over the service processes, in MiB. */
    double peak_rss_mb = 0.0;

    /** Service processes the tree held (router plus shards, or one). */
    int processes = 0;
};

/**
 * Run `setups` spawn + warm-up rounds (all but the last are shut down
 * again), then the timed window of `seconds` on the last one. Replies
 * that have not come back 10 s after the last warm-up send or the window
 * end are not waited for; the record simply lacks them. Throws
 * std::runtime_error when the service cannot be started or does not
 * answer its ping.
 */
DriveRecord drive(const WorkloadConfig& config, uint64_t seed,
                  double seconds, const std::string& bin_dir, int setups);

} // namespace perf
} // namespace qa

#endif // QA_PERF_DRIVE_HPP
