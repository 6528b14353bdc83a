/**
 * @file
 * Clock abstraction for testable timeouts.
 *
 * Every component that compares "now" against a budget (the fleet
 * router's ping timeouts, backoff releases and respawn schedule, the
 * scheduler's queue and execution timings) reads time through a Clock*
 * so tests can drive those decisions with a ManualClock instead of real
 * sleeps. Production code passes nullptr and gets the process-wide
 * steady clock.
 *
 * The abstraction deliberately reuses std::chrono::steady_clock's
 * time_point type: manual time stays directly comparable with instants
 * captured elsewhere (condition-variable deadlines, latency math), and
 * no conversion layer is needed at the call sites.
 */
#ifndef QA_COMMON_CLOCK_HPP
#define QA_COMMON_CLOCK_HPP

#include <atomic>
#include <chrono>
#include <cstdint>

namespace qa
{

/** Monotonic time source; see file comment for why it is virtual. */
class Clock
{
  public:
    using TimePoint = std::chrono::steady_clock::time_point;

    virtual ~Clock() = default;

    /** Current monotonic instant. */
    virtual TimePoint now() const = 0;

    /** Milliseconds elapsed from `since` to now() (never negative). */
    double
    elapsedMs(TimePoint since) const
    {
        const double ms =
            std::chrono::duration<double, std::milli>(now() - since)
                .count();
        return ms < 0.0 ? 0.0 : ms;
    }
};

/** The process-wide real steady clock (what `nullptr` resolves to). */
Clock& steadyClock();

/** Resolve an optional clock pointer to a usable clock. */
inline Clock&
resolveClock(Clock* clock)
{
    return clock != nullptr ? *clock : steadyClock();
}

/**
 * Test clock: starts at the real steady clock's current instant (so
 * manual instants stay ordered against real ones captured nearby) and
 * only moves when advanced. Thread-safe; watchdog threads may read it
 * while the test thread advances it.
 */
class ManualClock : public Clock
{
  public:
    ManualClock() : origin_(std::chrono::steady_clock::now()), offset_ns_(0)
    {}

    TimePoint
    now() const override
    {
        return origin_ +
               std::chrono::nanoseconds(
                   offset_ns_.load(std::memory_order_acquire));
    }

    /** Move time forward by `ms` milliseconds. */
    void
    advanceMs(double ms)
    {
        offset_ns_.fetch_add(int64_t(ms * 1e6), std::memory_order_acq_rel);
    }

  private:
    TimePoint origin_;
    std::atomic<int64_t> offset_ns_;
};

} // namespace qa

#endif // QA_COMMON_CLOCK_HPP
