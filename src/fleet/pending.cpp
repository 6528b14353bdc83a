#include "fleet/pending.hpp"

#include "common/error.hpp"

namespace qa
{
namespace fleet
{

PendingPtr
PendingTable::add(std::string client_id, serve::JsonValue request,
                  const Hash128& key, double deadline_ms,
                  std::vector<size_t> chain,
                  std::chrono::steady_clock::time_point now)
{
    QA_REQUIRE(!chain.empty(), "pending job needs a non-empty chain");
    auto job = std::make_shared<PendingJob>();
    job->seq = next_seq_++;
    job->client_id = std::move(client_id);
    job->request = std::move(request);
    job->key = key;
    job->deadline_ms = deadline_ms;
    job->chain = std::move(chain);
    job->admitted = now;
    jobs_.emplace(job->seq, job);
    return job;
}

std::string
PendingTable::issueAlias(const PendingPtr& job)
{
    std::string alias = "!f" + std::to_string(job->seq) + "." +
                        std::to_string(job->aliases.size());
    job->aliases.push_back(alias);
    aliases_.emplace(alias, job);
    return alias;
}

PendingPtr
PendingTable::find(const std::string& alias) const
{
    const auto it = aliases_.find(alias);
    return it == aliases_.end() ? nullptr : it->second;
}

PendingPtr
PendingTable::resolve(const std::string& alias)
{
    const auto it = aliases_.find(alias);
    if (it == aliases_.end()) return nullptr;
    PendingPtr job = it->second;
    for (const std::string& a : job->aliases) aliases_.erase(a);
    job->aliases.clear();
    jobs_.erase(job->seq);
    return job;
}

void
PendingTable::erase(const PendingPtr& job)
{
    for (const std::string& a : job->aliases) aliases_.erase(a);
    job->aliases.clear();
    jobs_.erase(job->seq);
}

std::vector<PendingPtr>
PendingTable::onShard(size_t shard) const
{
    std::vector<PendingPtr> out;
    for (const auto& [seq, job] : jobs_) {
        if (job->awaiting == shard) out.push_back(job);
    }
    return out;
}

std::vector<PendingPtr>
PendingTable::all() const
{
    std::vector<PendingPtr> out;
    out.reserve(jobs_.size());
    for (const auto& [seq, job] : jobs_) out.push_back(job);
    return out;
}

} // namespace fleet
} // namespace qa
