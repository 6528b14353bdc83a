#include "fleet/ring.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qa
{
namespace fleet
{

namespace
{

uint64_t
keyPosition(const Hash128& key)
{
    // Both lanes already avalanche; folding them keeps distinct keys
    // with equal hi words apart on the ring.
    return key.hi ^ (key.lo * 0x9E3779B97F4A7C15ULL);
}

} // namespace

HashRing::HashRing(size_t nshards, size_t vnodes, uint64_t seed)
    : nshards_(nshards)
{
    QA_REQUIRE(nshards > 0, "hash ring needs at least one shard");
    QA_REQUIRE(vnodes > 0, "hash ring needs at least one vnode per shard");
    points_.reserve(nshards * vnodes);
    for (size_t shard = 0; shard < nshards; ++shard) {
        for (size_t v = 0; v < vnodes; ++v) {
            HashStream hs(seed);
            hs.u64(shard).u64(v);
            points_.emplace_back(hs.digest().hi, shard);
        }
    }
    std::sort(points_.begin(), points_.end());
}

size_t
HashRing::shardFor(const Hash128& key) const
{
    const uint64_t pos = keyPosition(key);
    auto it = std::lower_bound(
        points_.begin(), points_.end(),
        std::make_pair(pos, size_t(0)),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (it == points_.end()) it = points_.begin(); // wrap
    return it->second;
}

std::optional<size_t>
HashRing::route(const Hash128& key,
                const std::function<bool(size_t)>& up) const
{
    for (size_t shard : preferenceChain(key)) {
        if (up(shard)) return shard;
    }
    return std::nullopt;
}

std::vector<size_t>
HashRing::preferenceChain(const Hash128& key) const
{
    const uint64_t pos = keyPosition(key);
    const size_t n = points_.size();
    size_t start = size_t(
        std::lower_bound(
            points_.begin(), points_.end(), std::make_pair(pos, size_t(0)),
            [](const auto& a, const auto& b) { return a.first < b.first; }) -
        points_.begin());
    if (start == n) start = 0; // wrap
    std::vector<size_t> chain;
    chain.reserve(nshards_);
    std::vector<bool> seen(nshards_, false);
    for (size_t step = 0; step < n && chain.size() < nshards_; ++step) {
        const size_t shard = points_[(start + step) % n].second;
        if (!seen[shard]) {
            seen[shard] = true;
            chain.push_back(shard);
        }
    }
    return chain;
}

} // namespace fleet
} // namespace qa
