#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <ostream>
#include <thread>

#include "acomp/run.hpp"
#include "backend/backend.hpp"
#include "common/hash.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/wire.hpp"
#include "sim/engine.hpp"

namespace qa
{
namespace perf
{

namespace
{

using Clock = std::chrono::steady_clock;

/** The request line after its id: equal bodies are equal jobs. */
std::string
requestBody(const std::string& line)
{
    const size_t cut = line.find("\",");
    return cut == std::string::npos ? line : line.substr(cut);
}

/** The SimOptions executeJob derives from a spec (serve/job.cpp). */
SimOptions
specOptions(const serve::JobSpec& spec)
{
    SimOptions options;
    options.shots = spec.shots;
    options.seed = spec.seed;
    options.noise = spec.noise.enabled() ? &spec.noise : nullptr;
    options.num_threads = spec.num_threads;
    options.deadline_ms = spec.deadline_ms;
    options.backend = spec.backend;
    options.mps_chi = spec.mps_chi;
    options.mps_trunc_tol = spec.mps_trunc_tol;
    return options;
}

bool
allSlotsPass(const std::string& bits,
             const std::vector<std::vector<int>>& slots)
{
    for (const std::vector<int>& slot : slots) {
        for (int c : slot) {
            if (bits[size_t(c)] != '0') return false;
        }
    }
    return true;
}

/** Appends spans; times are microseconds since construction. */
class Tracer
{
  public:
    explicit Tracer(std::vector<Span>& spans)
        : spans_(spans), origin_(Clock::now())
    {}

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    int
    open(const std::string& name, int parent, const std::string& job)
    {
        Span span;
        span.name = name;
        span.parent = parent;
        span.job = job;
        span.start_us = nowUs();
        spans_.push_back(std::move(span));
        return int(spans_.size()) - 1;
    }

    Span&
    close(int index)
    {
        Span& span = spans_[size_t(index)];
        span.end_us = nowUs();
        return span;
    }

  private:
    std::vector<Span>& spans_;
    Clock::time_point origin_;
};

/**
 * executeJob's wire-reachable paths (auto_assert and plain circuits),
 * with a span around each call into acomp, backend and core. Generated
 * jobs are valid, so executeJob's argument checks are not repeated.
 */
serve::JobResult
tracedExecute(const serve::JobSpec& spec, Tracer& tracer, int parent,
              const std::string& job)
{
    const SimOptions options = specOptions(spec);
    serve::JobResult result;
    result.tag = spec.tag;

    if (spec.auto_assert) {
        acomp::AcompOptions aopts;
        aopts.lowering = spec.assert_lowering;
        aopts.backend = spec.backend;
        int span = tracer.open("acomp.compile", parent, job);
        const acomp::CompiledProgram compiled = acomp::autoAssert(
            spec.circuit, aopts,
            spec.qasm_positions.empty() ? nullptr : &spec.qasm_positions);
        double ancillas = 0.0;
        for (const acomp::SlotSummary& slot : compiled.slots) {
            ancillas += double(slot.ancillas.size());
        }
        tracer.close(span).attrs["ancillas"] = ancillas;

        PolicyOptions popts;
        popts.policy = spec.policy;
        popts.max_attempts = spec.max_attempts;
        span = tracer.open("acomp.run", parent, job);
        const PolicyOutcome outcome =
            acomp::runLowered(compiled, options, popts);
        Span& run = tracer.close(span);
        run.kind = backendName(outcome.backend.backend);
        run.attrs["shots"] = spec.shots;
        result.counts = outcome.raw;
        result.program_counts = outcome.program_counts;
        result.slot_error_rate = outcome.slot_error_rate;
        result.pass_rate = outcome.pass_rate;
        result.truncated = outcome.truncated;
        result.backend = outcome.backend;
        result.mps_truncation_error = outcome.mps_truncation_error;
        result.assertions = compiled.slots;
        result.assert_variants = int(compiled.variants.size());
        return result;
    }

    int span = tracer.open("backend.route", parent, job);
    const backend::BackendChoice choice =
        backend::routeShots(spec.circuit, options);
    tracer.close(span);
    QA_REQUIRE_CODE(choice.capable, ErrorCode::kBadRequest, choice.reason);
    const std::string kind = backendName(choice.backend);

    span = tracer.open("backend.prepare." + kind, parent, job);
    const std::shared_ptr<const backend::PreparedCircuit> prepared =
        backend::backendFor(choice.backend).prepare(spec.circuit, options);
    Span& prep = tracer.close(span);
    prep.kind = kind;
    if (choice.fusion_enabled) {
        prep.attrs["gates_in"] = double(choice.fusion.gates_in);
        prep.attrs["gates_out"] = double(choice.fusion.gates_out);
    }

    std::string variant = kind;
    if (choice.backend == BackendKind::kStatevector) {
        variant = analyzeShotPlan(spec.circuit, options.noise)
                          .terminal_sampling
                      ? "statevector_terminal"
                      : "statevector_replay";
    }
    span = tracer.open("backend.shots." + variant, parent, job);
    const Counts raw = backend::runPrepared(*prepared, options);
    Span& shots = tracer.close(span);
    shots.kind = kind;
    shots.attrs["shots"] = spec.shots;

    result.backend = choice;
    result.mps_truncation_error = prepared->truncationError();
    result.counts = raw;
    result.truncated = raw.truncated;

    const auto& slots = spec.assert_clbits;
    if (slots.empty()) {
        result.program_counts = raw;
        return result;
    }

    span = tracer.open("core.postselect", parent, job);
    for (const std::vector<int>& slot : slots) {
        result.slot_error_rate.push_back(1.0 - raw.fractionAllZero(slot));
    }
    result.pass_rate = raw.fraction([&](const std::string& bits) {
        return allSlotsPass(bits, slots);
    });
    std::vector<bool> is_assert(size_t(spec.circuit.numClbits()), false);
    for (const std::vector<int>& slot : slots) {
        for (int c : slot) is_assert[size_t(c)] = true;
    }
    std::vector<int> program_bits;
    for (int c = 0; c < spec.circuit.numClbits(); ++c) {
        if (!is_assert[size_t(c)]) program_bits.push_back(c);
    }
    result.program_counts = marginalCounts(
        filterCounts(raw,
                     [&](const std::string& bits) {
                         return allSlotsPass(bits, slots);
                     }),
        program_bits);
    tracer.close(span);
    return result;
}

} // namespace

std::string
payloadDigest(const std::string& reply_line)
{
    serve::JsonValue reply = serve::JsonValue::parse(reply_line);
    for (const char* key : {"id", "queue_ms", "exec_ms", "cache_hit"}) {
        reply.set(key, serve::JsonValue());
    }
    HashStream stream(0x70657266ULL); // domain tag: "perf"
    stream.str(reply.dump());
    return stream.digest().str();
}

std::map<std::string, std::string>
referenceDigests(const std::vector<const GenJob*>& jobs, int threads)
{
    std::map<std::string, std::string> by_body;
    for (const GenJob* job : jobs) by_body[requestBody(job->line)];
    std::vector<std::pair<const std::string*, std::string*>> work;
    for (auto& [body, digest] : by_body) work.push_back({&body, &digest});

    std::atomic<size_t> cursor{0};
    auto worker = [&] {
        for (size_t i = cursor++; i < work.size(); i = cursor++) {
            const std::string line = "{\"id\":\"ref" + *work[i].first;
            std::string digest;
            try {
                const serve::JobResult result =
                    serve::executeJob(serve::parseRequest(line).spec);
                digest = payloadDigest(serve::encodeResult("", result));
            } catch (const std::exception& err) {
                digest = std::string("error:") + err.what();
            }
            *work[i].second = std::move(digest); // distinct slot per i
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < std::max(threads, 1); ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();

    std::map<std::string, std::string> out;
    for (const GenJob* job : jobs) {
        out[job->id] = by_body[requestBody(job->line)];
    }
    return out;
}

TraceRecord
tracedReplay(const std::vector<const GenJob*>& jobs, size_t cache_capacity)
{
    TraceRecord record;
    Tracer tracer(record.spans);
    serve::ResultCache cache(cache_capacity);
    size_t executed = 0;

    for (const GenJob* job : jobs) {
        const std::string& id = job->id;
        const int root = tracer.open("serve.job", -1, id);
        record.spans[size_t(root)].kind = job->klass;

        int span = tracer.open("serve.decode", root, id);
        const serve::WireRequest request = serve::parseRequest(job->line);
        tracer.close(span);

        span = tracer.open("serve.jobkey", root, id);
        const Hash128 key = serve::jobKey(request.spec);
        tracer.close(span);

        span = tracer.open("serve.cache_get", root, id);
        std::optional<serve::JobResult> cached = cache.get(key);
        tracer.close(span);

        serve::JobResult result;
        if (cached) {
            result = std::move(*cached);
            result.cache_hit = true;
        } else {
            // Alternate which of the pair runs first, so neither side
            // always finds warm CPU caches. The reference span sits
            // inside the job's root span and is excluded from busy time.
            serve::JobResult reference;
            auto runReference = [&] {
                const int ref = tracer.open("ref.execute_job", root, id);
                reference = serve::executeJob(request.spec);
                tracer.close(ref);
            };
            if (executed % 2 == 0) runReference();
            const int exec = tracer.open("serve.exec", root, id);
            result = tracedExecute(request.spec, tracer, exec, id);
            Span& exec_span = tracer.close(exec);
            exec_span.kind = backendName(result.backend.backend);
            exec_span.attrs["trunc"] = result.mps_truncation_error;
            if (executed % 2 == 1) runReference();
            ++executed;

            if (serve::payloadHash(reference) != serve::payloadHash(result)) {
                ++record.replica_mismatches;
            }
            cache.put(key, reference);
        }

        span = tracer.open("serve.encode", root, id);
        const std::string line = serve::encodeResult(id, result);
        tracer.close(span).attrs["kb"] = double(line.size()) / 1024.0;
        tracer.close(root);
        ++record.jobs;
    }
    return record;
}

void
writeSpans(std::ostream& out, const std::vector<Span>& spans)
{
    for (const Span& span : spans) {
        out << "{\"name\":\"" << span.name << "\",\"job\":\""
            << serve::jsonEscape(span.job)
            << "\",\"start_us\":" << serve::jsonNumber(span.start_us)
            << ",\"end_us\":" << serve::jsonNumber(span.end_us)
            << ",\"parent\":" << span.parent;
        if (!span.kind.empty()) out << ",\"kind\":\"" << span.kind << "\"";
        for (const auto& [key, value] : span.attrs) {
            out << ",\"" << key << "\":" << serve::jsonNumber(value);
        }
        out << "}\n";
    }
}

} // namespace perf
} // namespace qa
