/**
 * @file
 * Per-shard health state machine fed by wire-ping probes and process
 * lifecycle events.
 *
 * Three states, chosen so routing can distinguish "avoid if possible"
 * from "do not send":
 *  - **up**: probes answering; the shard takes its ring keyspace.
 *  - **degraded**: at least one recent probe failed or timed out, but
 *    fewer than `fail_threshold` in a row. Still routable (jobs in
 *    flight are likely fine), but one more failure streak away from
 *    down.
 *  - **down**: `fail_threshold` consecutive failures, a process exit,
 *    or a write failure on the shard's stdin. Not routable; its
 *    keyspace re-hashes to ring successors until recovery.
 *
 * Recovery is deliberately conservative: a down shard must answer
 * `recover_threshold` consecutive probes before it is marked up again
 * and takes its keys back — one lucky pong does not un-down a flapping
 * shard. All transitions are pure functions of the event sequence, so
 * the machine is unit-testable without processes or clocks.
 */
#ifndef QA_FLEET_HEALTH_HPP
#define QA_FLEET_HEALTH_HPP

#include <cstdint>

namespace qa
{
namespace fleet
{

/** Routable health of one shard. */
enum class ShardHealth
{
    kUp,
    kDegraded,
    kDown
};

/** Stable wire/log name of a health state. */
const char* shardHealthName(ShardHealth health);

/** Health thresholds. */
struct HealthOptions
{
    /** Consecutive probe failures that take an up/degraded shard down. */
    int fail_threshold = 3;

    /** Consecutive probe successes that bring a down shard back up. */
    int recover_threshold = 2;
};

class HealthTracker
{
  public:
    explicit HealthTracker(HealthOptions options = {})
        : options_(options)
    {}

    /** A probe (or any shard response) succeeded. */
    void onSuccess();

    /** A probe failed or timed out, or a shard write failed. */
    void onFailure();

    /** The shard process exited: down immediately, streaks reset. */
    void onProcessExit();

    ShardHealth state() const { return state_; }

    /** Total entries into kDown (flap visibility). */
    uint64_t downTransitions() const { return down_transitions_; }

  private:
    void enterDown();

    HealthOptions options_;
    ShardHealth state_ = ShardHealth::kUp;
    int consecutive_failures_ = 0;
    int consecutive_successes_ = 0;
    uint64_t down_transitions_ = 0;
};

} // namespace fleet
} // namespace qa

#endif // QA_FLEET_HEALTH_HPP
