/**
 * @file
 * Consistent-hash ring mapping 128-bit structural job keys onto shard
 * indices.
 *
 * Each shard owns `vnodes` pseudo-random positions on a 64-bit ring
 * (HashStream over (ring seed, shard, vnode) — deterministic across
 * processes and restarts, so cache affinity survives a router restart).
 * A key routes to the shard owning the first position at or after the
 * key's own position, wrapping at the top.
 *
 * Failover is the ring's whole point: routing takes an `up` predicate
 * and walks clockwise past positions whose shard is not admitting, so a
 * down shard's keyspace spills onto its ring successors — and only its
 * successors; every other shard keeps its keys (and its result-cache
 * affinity). When the shard comes back, the same walk finds it first
 * again and affinity restores by construction: shardFor is a pure
 * function of (ring layout, key, up-set), and the layout never changes
 * after construction.
 */
#ifndef QA_FLEET_RING_HPP
#define QA_FLEET_RING_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/hash.hpp"

namespace qa
{
namespace fleet
{

class HashRing
{
  public:
    /**
     * Build the ring for shards [0, nshards). More vnodes flatten the
     * keyspace split (64 per shard keeps the max/min shard share within
     * ~±25% for uniform keys). Throws UserError on nshards == 0 or
     * vnodes == 0.
     */
    explicit HashRing(size_t nshards, size_t vnodes = 64,
                      uint64_t seed = 0x716172696e67ULL); // "qaring"

    size_t shards() const { return nshards_; }

    /** Ring-owner shard of `key`, ignoring liveness (the affinity home). */
    size_t shardFor(const Hash128& key) const;

    /**
     * First shard at or after `key`'s position for which `up` returns
     * true; nullopt when no shard passes (all shards down — the caller
     * turns that into a typed kNoShardAvailable error, never a hang).
     */
    std::optional<size_t>
    route(const Hash128& key,
          const std::function<bool(size_t)>& up) const;

    /**
     * Every shard exactly once, in the order the clockwise walk from
     * `key` first meets them: [affinity home, first failover successor,
     * second, ...]. Failovers and retries take the next entry, so their
     * target choice is deterministic too.
     */
    std::vector<size_t> preferenceChain(const Hash128& key) const;

  private:
    /** Points sorted by position; .second is the owning shard. */
    std::vector<std::pair<uint64_t, size_t>> points_;
    size_t nshards_;
};

} // namespace fleet
} // namespace qa

#endif // QA_FLEET_RING_HPP
