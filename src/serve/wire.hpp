/**
 * @file
 * qassertd wire protocol: newline-delimited JSON requests/responses.
 *
 * Request (one JSON object per line):
 *   {"op": "run",                     // default; also "explain",
 *                                     // "metrics","shutdown"
 *    "id": "job-1",                   // echoed back; optional
 *    "qasm": "OPENQASM 2.0; ...",     // circuit: gate-table gates (and
 *                                     // their aliases), measure, reset,
 *                                     // barrier
 *    "shots": 1024, "seed": 7,        // optional, defaults as JobSpec
 *    "deadline_ms": 0, "priority": 0,
 *    "threads": 1, "cache": true,     // threads capped at the core count
 *    "backend": "auto",               // or statevector|density_matrix|
 *                                     // stabilizer|mps (explicit)
 *    "mps_chi": 64, "mps_tol": 1e-6,  // MPS bond cap and tolerance
 *    "assert_clbits": [[0],[1,2]],    // assertion slots (|0..0> = pass)
 *    "auto_assert": true,             // raw circuit: generate + lower
 *                                     // assertions (assertion compiler)
 *    "assert_lowering": "auto",       // or swap|or|ndd|pauli
 *                                     // (auto_assert only)
 *    "noise": {"kind": "melbourne"}}  // or "none" (default) or
 *                                     // {"kind":"depolarizing",
 *                                     //  "p1":1e-3,"p2":1e-2}
 *
 * A field outside this list (or a noise field its kind does not read)
 * is rejected with "bad_request" naming it, and so is an integer field
 * (shots, priority, threads, mps_chi, an assert_clbits entry) outside
 * the int range; "metrics", "ping" and "shutdown" take only "op" and
 * "id".
 *
 * Response (one line per request, tagged with the request id):
 *   {"id":"job-1","status":"ok","cache_hit":false,"backend":"stabilizer",
 *    "shots":1024,"truncated":false,"pass_rate":0.98,
 *    "slot_error_rate":[0.02],
 *    "counts":{"00":519,...},"program_counts":{"0":519,...},
 *    "queue_ms":0.1,"exec_ms":3.2}
 *   {"id":"job-2","status":"error","code":"queue_full","message":"..."}
 *
 * auto_assert results additionally carry the compiled lowering report:
 *   "auto_assert":{"generated":2,"slots":[
 *     {"form":"pauli","invariant":"entangled","position":5,
 *      "qubits":[0,1,2],"clbits":[0,1,2],"ancillas":0,"gates":14,
 *      "cx":4,"generators":3,
 *      "source":{"line":7,"col":1}},...]}
 *
 * An "explain" request takes the same fields as "run" but classifies
 * and routes without executing:
 *   {"id":"e1","status":"ok","class":"clifford","backend":"stabilizer",
 *    "capable":true,"non_clifford_gates":0,"reason":"..."}
 * Under auto_assert the explain response routes the instrumented
 * circuit and appends the same "auto_assert" block.
 *
 * Responses are emitted in completion order (the id is the correlation
 * key), which is what lets a single connection keep the whole worker
 * pool busy.
 */
#ifndef QA_SERVE_WIRE_HPP
#define QA_SERVE_WIRE_HPP

#include <cstddef>
#include <string>

#include "serve/job.hpp"
#include "serve/json.hpp"
#include "serve/metrics.hpp"

namespace qa
{
namespace serve
{

/** Request kinds qassertd understands. */
enum class RequestOp
{
    kRun,     ///< Submit a job.
    kExplain, ///< Classify + route the job without executing it.
    kMetrics, ///< Return a ServiceMetrics snapshot.
    kPing,    ///< Lightweight liveness probe (answered on the read loop).
    kShutdown ///< Drain and exit.
};

/** One decoded request line. */
struct WireRequest
{
    RequestOp op = RequestOp::kRun;
    std::string id;
    JobSpec spec; // populated for kRun
};

/**
 * Best-effort id extraction from an already-parsed request object, so
 * error responses stay correlated even when the rest of the request is
 * malformed. Returns "" when absent.
 */
std::string requestId(const JsonValue& request);

/**
 * Decode a parsed request object. Throws UserError with
 * ErrorCode::kBadRequest (protocol errors) or kQasmSyntax (bad circuit
 * text) — the caller turns those into error responses.
 */
WireRequest buildRequest(const JsonValue& request);

/** Parse + decode one NDJSON line (convenience used by tests). */
WireRequest parseRequest(const std::string& line);

/** Encode a completed job as one response line (no trailing newline). */
std::string encodeResult(const std::string& id, const JobResult& result);

/**
 * Deterministic-payload encoding: encodeResult minus everything that
 * varies run to run (queue_ms/exec_ms timing, cache_hit). Two
 * executions of the same JobSpec produce byte-identical encodeReplay
 * lines — this is what `qassertd --replay` emits and what the
 * kill-and-replay smoke test diffs.
 */
std::string encodeReplay(const std::string& id, const JobResult& result);

/**
 * Encode a failure as one response line (no trailing newline). A
 * positive `retry_after_ms` adds a `"retry_after_ms"` field — the
 * server's own estimate of when a resubmission could succeed.
 * qassertd attaches it to kQueueFull rejections (see
 * Scheduler::retryAfterMsHint) so qa_router and well-behaved clients
 * back off instead of hammering a saturated shard.
 */
std::string encodeError(const std::string& id, ErrorCode code,
                        const std::string& message,
                        double retry_after_ms = 0.0);

/** The "bad_request" answer to an input line over `max_line` bytes;
 * its id is empty because the line was dropped unread. */
std::string encodeOverflow(size_t max_line);

/**
 * Encode a ping response: `{"id":...,"status":"ok","pong":true,
 * "queue_depth":N,"in_flight":N}`. Cheap enough for the fleet router's
 * health prober to issue every probe interval against every shard.
 */
std::string encodePing(const std::string& id, size_t queue_depth,
                       size_t in_flight);

/**
 * Best-effort extraction of the id of an encoded *response* line
 * without a full JSON parse: every encoder in this file emits
 * `{"id":"..."` first, and router-internal ids never contain escapes.
 * Returns false (and falls back on the caller doing a full parse) when
 * the line does not start that way or the id contains a backslash.
 */
bool peekResponseId(const std::string& line, std::string* id);

/**
 * Encode an "explain" routing decision as one response line. When
 * `compiled` is non-null (auto_assert explains) the line additionally
 * carries the assertion compiler's per-slot lowering report.
 */
std::string encodeExplain(const std::string& id,
                          const backend::BackendChoice& choice,
                          const acomp::CompiledProgram* compiled = nullptr);

/** Encode a metrics snapshot as one response line. */
std::string encodeMetrics(const MetricsSnapshot& snapshot);

} // namespace serve
} // namespace qa

#endif // QA_SERVE_WIRE_HPP
