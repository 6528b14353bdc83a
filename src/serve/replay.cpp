#include "serve/replay.hpp"

#include <ostream>

#include "common/error.hpp"
#include "resilience/journal.hpp"
#include "serve/job.hpp"
#include "serve/wire.hpp"

namespace qa
{
namespace serve
{

ReplayReport
replayJournal(const std::string& path, std::ostream& out,
              std::ostream& diag, const ReplayOptions& options)
{
    const resilience::JournalScan scan = resilience::scanJournal(path);
    ReplayReport report;
    report.total = scan.accepted.size();
    report.torn_tail = scan.torn_tail;
    if (scan.torn_tail) {
        diag << "replay: journal has a torn final record (crash "
                "mid-append); dropped\n";
    }
    diag << "replay: " << scan.accepted.size() << " accepted job(s), "
         << scan.completed.size() << " completion record(s)\n";

    for (const resilience::JournalEntry& entry : scan.accepted) {
        if (options.cancel != nullptr && options.cancel->load() != 0) {
            report.status = ReplayStatus::kInterrupted;
            out.flush();
            diag << "replay: cancelled after " << report.executed << "/"
                 << report.total
                 << " job(s); output is a clean prefix, journal "
                    "untouched\n";
            return report;
        }

        std::string id;
        JobResult result;
        try {
            const JsonValue parsed = JsonValue::parse(entry.request);
            id = requestId(parsed);
            WireRequest request = buildRequest(parsed);
            result = executeJob(request.spec);
        } catch (const std::exception& err) {
            result = failedResult(err);
        }
        out << encodeReplay(id, result) << "\n";
        report.executed++;

        const auto completed = scan.completed.find(entry.seq);
        if (completed == scan.completed.end()) continue;
        if (completed->second.status != "ok" &&
            completed->second.status != "failed") {
            continue; // rejected/cancelled records carry no payload hash
        }
        const std::string recomputed = payloadHash(result).str();
        if (recomputed != completed->second.hash) {
            diag << "replay: seq " << entry.seq
                 << " payload hash mismatch (journal "
                 << completed->second.hash << ", replay " << recomputed
                 << ")\n";
            report.mismatches++;
        }
    }
    out.flush();
    if (report.mismatches > 0) {
        report.status = ReplayStatus::kHashMismatch;
        diag << "replay: NOT bit-identical (" << report.mismatches
             << " mismatching payload(s))\n";
    } else {
        diag << "replay: done; all journaled payloads reproduced "
                "bit-identically\n";
    }
    return report;
}

} // namespace serve
} // namespace qa
