/**
 * @file
 * Deterministic network-fault plans for the remote fleet — the model
 * behind the qa_netchaos proxy (tools/qa_netchaos.cpp).
 *
 * Mirrors tests/chaos.hpp one layer down: where ChaosPlan perturbs the
 * *serving* of jobs (stalls, throws), a NetFaultPlan perturbs the
 * *bytes between router and shard*. Every per-connection decision is a
 * pure function of (seed, connection index) and every per-chunk
 * decision of (seed, connection index, chunk index) — counter-based
 * splitmix, no hidden RNG state — so a chaos run is reproducible: the
 * same seed and plan text produce the same faults on the same
 * connection sequence, and a bug found under qa_netchaos replays.
 *
 * Plan grammar (one line, families separated by ';', parameters by ','):
 *
 *   reset:every=K[,after_bytes=N]
 *       Every K-th proxied connection is hard-reset (RST via linger-0
 *       close) once N bytes (default 0) have crossed it.
 *   partition:at=MS,dur=MS
 *       One global window, MS after proxy start: existing connections
 *       are reset at the window edge, connections arriving inside it
 *       are black-holed (accepted, bytes swallowed, nothing forwarded)
 *       until the window ends, then reset.
 *   slowloris:every=K,delay_ms=D[,chunk=C][,bytes=N]
 *       Every K-th connection dribbles: forwarded in C-byte chunks
 *       (default 1) with a D ms pause before each, for the first N
 *       bytes per direction (default: the whole connection).
 *   partial:p=P
 *       Each forwarded chunk is, with probability P, split into two
 *       separate writes (exercises short-write handling everywhere).
 *   blackhole:every=K,dur=MS
 *       Every K-th connection goes silent after accept: bytes are
 *       swallowed without ACK-level progress for MS, then the
 *       connection is reset.
 *
 * Families compose ("reset:every=7;slowloris:every=5,delay_ms=20"); a
 * connection matching several gets all of them. "every" counts
 * 1-based: every=3 hits connections 2, 5, 8, ... (index % 3 == 2), so
 * every=1 hits all and the first connection of a fresh proxy is only
 * hit by every=1 — plans default to letting the fleet come up once.
 */
#ifndef QA_RESILIENCE_NETFAULT_HPP
#define QA_RESILIENCE_NETFAULT_HPP

#include <cstdint>
#include <string>

namespace qa
{
namespace resilience
{

/** Per-connection fault assignment (resolved once at accept). */
struct NetConnFaults
{
    bool reset = false;
    uint64_t reset_after_bytes = 0;

    bool slowloris = false;
    double slowloris_delay_ms = 0.0;
    uint64_t slowloris_chunk = 1;
    uint64_t slowloris_bytes = 0; ///< 0 = the whole connection.

    bool blackhole = false;
    double blackhole_dur_ms = 0.0;

    bool
    any() const
    {
        return reset || slowloris || blackhole;
    }
};

/** Parsed, seeded network-fault plan. */
class NetFaultPlan
{
  public:
    /** The empty plan: faults nothing. */
    NetFaultPlan() = default;

    /**
     * Parse the plan grammar above. Throws UserError(kBadRequest) on an
     * unknown family, unknown key, malformed number, or missing
     * required parameter. An empty string is the empty plan.
     */
    static NetFaultPlan parse(const std::string& text, uint64_t seed);

    /** Faults assigned to the `conn`-th accepted connection (0-based). */
    NetConnFaults connFaults(uint64_t conn) const;

    /**
     * True when chunk `chunk` of connection `conn` should be delivered
     * as two partial writes. Pure in (seed, conn, chunk).
     */
    bool partialWrite(uint64_t conn, uint64_t chunk) const;

    bool hasPartition() const { return partition_dur_ms_ > 0.0; }
    double partitionAtMs() const { return partition_at_ms_; }
    double partitionEndMs() const
    {
        return partition_at_ms_ + partition_dur_ms_;
    }

    /** Inside the partition window, `now_ms` after proxy start? */
    bool inPartition(double now_ms) const
    {
        return hasPartition() && now_ms >= partition_at_ms_ &&
               now_ms < partitionEndMs();
    }

    /** One-line human summary (proxy startup banner). */
    std::string describe() const;

    uint64_t seed() const { return seed_; }

  private:
    uint64_t seed_ = 0;

    bool reset_enabled_ = false;
    uint64_t reset_every_ = 0;
    uint64_t reset_after_bytes_ = 0;

    double partition_at_ms_ = 0.0;
    double partition_dur_ms_ = 0.0;

    bool slowloris_enabled_ = false;
    uint64_t slowloris_every_ = 0;
    double slowloris_delay_ms_ = 0.0;
    uint64_t slowloris_chunk_ = 1;
    uint64_t slowloris_bytes_ = 0;

    double partial_p_ = 0.0;

    bool blackhole_enabled_ = false;
    uint64_t blackhole_every_ = 0;
    double blackhole_dur_ms_ = 0.0;
};

} // namespace resilience
} // namespace qa

#endif // QA_RESILIENCE_NETFAULT_HPP
