/**
 * @file
 * The Backend class and the routed shot-execution entry points: the
 * one shot loop shared by every backend and every assertion policy,
 * prepareRouted, and the top-level qa::runShots the rest of the
 * codebase calls.
 */
#include "backend/backend.hpp"

#include <iterator>
#include <utility>

#include "common/error.hpp"
#include "sim/engine.hpp"

namespace qa
{
namespace backend
{

namespace
{

/**
 * One worker's shot body: draws a shot's attempts from its own RNG
 * streams and tallies the outcome per the rules. Holds the worker's
 * sampler, created on first use (a worker that never draws a shot never
 * pays for its scratch).
 */
class ShotBody
{
  public:
    ShotBody(const PreparedCircuit& prepared, const ShotRules& rules,
             uint64_t seed)
        : prepared_(prepared), rules_(rules), seed_(seed)
    {}

    /** Run shot `shot` into `tally`; true when its last attempt flagged. */
    bool
    run(int shot, ShotTally& tally)
    {
        if (sampler_ == nullptr) sampler_ = prepared_.makeSampler();
        const std::vector<std::vector<int>>& slots = rules_.slot_clbits;
        if (tally.slot_errors.size() != slots.size()) {
            tally.slot_errors.assign(slots.size(), 0);
        }
        const int attempts = rules_.attempts;
        for (int a = 0;; ++a) {
            Rng rng = Rng::forStream(
                seed_, uint64_t(shot) * uint64_t(attempts) + uint64_t(a));
            std::string bits = sampler_->runOne(rng);
            bool any = false;
            for (size_t i = 0; i < slots.size(); ++i) {
                bool flagged = false;
                for (int c : slots[i]) flagged |= bits[size_t(c)] != '0';
                if (a == 0 && flagged) ++tally.slot_errors[i];
                any |= flagged;
            }
            if (a == 0 && !any) ++tally.passed;
            if (any && a + 1 < attempts) {
                ++tally.retries;
                continue;
            }
            if (!any || rules_.keep_flagged) {
                ++tally.kept.map[std::move(bits)];
                ++tally.kept.shots;
            }
            return any;
        }
    }

  private:
    const PreparedCircuit& prepared_;
    const ShotRules& rules_;
    uint64_t seed_;
    std::unique_ptr<ShotSampler> sampler_;
};

} // namespace

const Backend&
backendFor(BackendKind kind)
{
    static const Backend backends[] = { // in BackendKind order
        Backend(BackendKind::kStatevector),
        Backend(BackendKind::kDensityMatrix),
        Backend(BackendKind::kStabilizer), Backend(BackendKind::kMps)};
    QA_REQUIRE(size_t(kind) < std::size(backends), "unknown backend kind");
    return backends[size_t(kind)];
}

std::shared_ptr<const PreparedCircuit>
Backend::prepare(const QuantumCircuit& circuit, const SimOptions& options,
                 const CircuitAnalysis& analysis) const
{
    switch (kind_) {
      case BackendKind::kStatevector:
        return detail::prepareStatevector(circuit, options, analysis);
      case BackendKind::kDensityMatrix:
        return detail::prepareDensityMatrix(circuit, options, analysis);
      case BackendKind::kStabilizer:
        return detail::prepareStabilizer(circuit, options, analysis);
      case BackendKind::kMps:
        return detail::prepareMps(circuit, options, analysis);
    }
    QA_FAIL("unknown backend kind");
}

ShotTally
runShotLoop(const PreparedCircuit& prepared, const ShotRules& rules,
            const SimOptions& options)
{
    QA_REQUIRE(options.shots > 0, "need a positive shot count");
    QA_REQUIRE(rules.attempts >= 1, "need at least one attempt per shot");

    ShotTally out;
    out.slot_errors.assign(rules.slot_clbits.size(), 0);
    if (rules.stop_on_flag) {
        // Fail-fast is inherently ordered: run shots serially in shot
        // order and stop at the first flagged one, so the stopping
        // point is deterministic.
        const ShotDeadline deadline(options.deadline_ms);
        ShotBody body(prepared, rules, options.seed);
        for (int s = 0; s < options.shots; ++s) {
            if (deadline.active() && (s & 63) == 0 && deadline.expired()) {
                out.kept.truncated = true;
                break;
            }
            ++out.completed;
            if (body.run(s, out)) break;
        }
    } else {
        std::vector<ShotTally> locals;
        const ShotLoopStatus status = runShotPool(
            options.shots, options.num_threads, options.deadline_ms,
            locals, [&]() {
                return [body = ShotBody(prepared, rules, options.seed)](
                           int shot, ShotTally& local) mutable {
                    body.run(shot, local);
                };
            });
        out.completed = status.completed;
        out.kept.truncated = status.truncated;
        for (const ShotTally& local : locals) {
            mergeCounts(out.kept, local.kept);
            for (size_t i = 0; i < local.slot_errors.size(); ++i) {
                out.slot_errors[i] += local.slot_errors[i];
            }
            out.passed += local.passed;
            out.retries += local.retries;
        }
    }
    return out;
}

Counts
runPrepared(const PreparedCircuit& prepared, const SimOptions& options)
{
    return runShotLoop(prepared, ShotRules{}, options).kept;
}

std::shared_ptr<const PreparedCircuit>
Backend::prepare(const QuantumCircuit& circuit,
                 const SimOptions& options) const
{
    return prepare(circuit, options, analyzeForRouting(circuit, options));
}

Counts
Backend::runShots(const QuantumCircuit& circuit,
                  const SimOptions& options) const
{
    return runPrepared(*prepare(circuit, options), options);
}

std::shared_ptr<const PreparedCircuit>
prepareRouted(const QuantumCircuit& circuit, const SimOptions& options,
              const Route& route)
{
    QA_REQUIRE_CODE(route.choice.capable, ErrorCode::kBadRequest,
                    route.choice.reason);
    return backendFor(route.choice.backend)
        .prepare(circuit, options, route.analysis);
}

} // namespace backend

Counts
runShots(const QuantumCircuit& circuit, const SimOptions& options)
{
    return backend::runPrepared(
        *backend::prepareRouted(circuit, options,
                                backend::route(circuit, options)),
        options);
}

} // namespace qa
