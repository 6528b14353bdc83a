/**
 * @file
 * Exactly-once bookkeeping for jobs the fleet router has admitted but
 * not yet answered.
 *
 * Every admitted client request becomes one PendingJob. Each dispatch
 * of that job to a shard — the first send, a failover resubmission
 * after a shard death, a backoff retry after queue_full — gets its own
 * router-issued *alias* id ("!f<seq>.<n>"), which is what the shard
 * echoes back. A job has at most one outstanding dispatch
 * (PendingJob::awaiting is a single slot), and every path that issues
 * a new one first clears the old. All aliases of a job map to the same
 * entry, and resolve() removes the job *and every alias* in one step:
 * the first response wins, and any later response through another
 * alias (a zombie shard flushing its pipe) finds nothing and is dropped
 * as a stray. That single-removal point is the fleet-level exactly-once
 * guarantee — no client request is ever answered twice, and none is
 * forgotten (jobs stay in the table until answered or typed-failed).
 *
 * Thread safety: none here by design. The router already serializes
 * admission, responses, and maintenance under one mutex; a second lock
 * inside the table would only add deadlock surface.
 */
#ifndef QA_FLEET_PENDING_HPP
#define QA_FLEET_PENDING_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "serve/json.hpp"

namespace qa
{
namespace fleet
{

/** One admitted, unanswered client job. */
struct PendingJob
{
    uint64_t seq = 0;

    /** The id the client sent (restored on the response). */
    std::string client_id;

    /** Parsed original request; the id is rewritten per dispatch. */
    serve::JsonValue request;

    /** Structural job key (routing position). */
    Hash128 key;

    /** Client deadline budget; bounds fleet-level retries. */
    double deadline_ms = 0.0;

    /** Ring preference chain at admission (affinity home first). */
    std::vector<size_t> chain;

    /** Next chain index a fresh dispatch should try. */
    size_t next_chain = 0;

    /** Shard holding the job's one outstanding dispatch, if any. */
    std::optional<size_t> awaiting;

    /** Dispatches issued so far (fleet-level attempt count). */
    int dispatches = 0;

    /** Times the job parked because no shard would take a dispatch. */
    int parks = 0;

    /** Waiting out a retry backoff instead of being in flight. */
    bool parked = false;

    std::chrono::steady_clock::time_point admitted;
    /** Backoff end (valid when parked). */
    std::chrono::steady_clock::time_point release;

    /** Every alias issued for this job (cleared on resolution). */
    std::vector<std::string> aliases;
};

using PendingPtr = std::shared_ptr<PendingJob>;

class PendingTable
{
  public:
    /** Admit a job; `chain` must be non-empty. */
    PendingPtr add(std::string client_id, serve::JsonValue request,
                   const Hash128& key, double deadline_ms,
                   std::vector<size_t> chain,
                   std::chrono::steady_clock::time_point now);

    /**
     * Mint and register a fresh alias id for one dispatch of `job`.
     * Aliases are "!f<seq>.<n>" — the leading '!' keeps them disjoint
     * from the router's "!p..." ping ids, and no client-chosen id is
     * ever used as a shard-facing key.
     */
    std::string issueAlias(const PendingPtr& job);

    /** The job behind an alias; nullptr for unknown (stray) ids. */
    PendingPtr find(const std::string& alias) const;

    /**
     * Resolve through an alias: removes the job and all of its aliases,
     * returning it — exactly once. A second call through any alias of
     * the same job returns nullptr (the caller counts a stray).
     */
    PendingPtr resolve(const std::string& alias);

    /**
     * Remove a job directly (router-generated resolutions: typed
     * no-shard failures, stop-time kServiceStopped). Same exactly-once
     * cleanup as resolve, keyed by the job instead of an alias — a job
     * that never dispatched has no alias to resolve through.
     */
    void erase(const PendingPtr& job);

    /** Jobs whose outstanding dispatch is on `shard` (failover scan). */
    std::vector<PendingPtr> onShard(size_t shard) const;

    /** Every pending job (maintenance scan: backoff releases). */
    std::vector<PendingPtr> all() const;

    /** Pending job count. */
    size_t size() const { return jobs_.size(); }

  private:
    uint64_t next_seq_ = 0;
    std::unordered_map<uint64_t, PendingPtr> jobs_;
    std::unordered_map<std::string, PendingPtr> aliases_;
};

} // namespace fleet
} // namespace qa

#endif // QA_FLEET_PENDING_HPP
