#include "resilience/retry.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace qa
{
namespace resilience
{

double
retryBackoffMs(const RetryOptions& options, uint64_t job_seq, int retry)
{
    if (retry < 1) retry = 1;
    double backoff = options.base_backoff_ms;
    for (int i = 1; i < retry && backoff < options.max_backoff_ms; ++i) {
        backoff *= 2.0;
    }
    backoff = std::min(backoff, options.max_backoff_ms);

    // Counter-based jitter in [0.5, 1.0): same (seed, seq, retry) always
    // yields the same delay; distinct jobs decorrelate (avoids retry
    // stampedes without sacrificing reproducibility).
    const uint64_t draw = splitmix64(
        options.jitter_seed ^
        (job_seq * 0x9E3779B97F4A7C15ULL + uint64_t(retry)));
    const double unit = double(draw >> 11) * 0x1.0p-53;
    return backoff * (0.5 + 0.5 * unit);
}

} // namespace resilience
} // namespace qa
