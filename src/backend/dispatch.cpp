/**
 * @file
 * The Backend class and the routed shot-execution entry points: the
 * one shot loop shared by every backend and every job (runPrepared),
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

Counts
runPrepared(const PreparedCircuit& prepared, const SimOptions& options)
{
    QA_REQUIRE(options.shots > 0, "need a positive shot count");
    // Each worker owns one sampler, created on its first shot (a worker
    // that never draws a shot never pays for its scratch).
    std::vector<Counts> locals;
    const ShotLoopStatus status = runShotPool(
        options.shots, options.num_threads, options.deadline_ms, locals,
        [&]() {
            return [&prepared, seed = options.seed,
                    sampler = std::unique_ptr<ShotSampler>()](
                       int shot, Counts& local) mutable {
                if (sampler == nullptr) sampler = prepared.makeSampler();
                Rng rng = Rng::forStream(seed, uint64_t(shot));
                ++local.map[sampler->runOne(rng)];
                ++local.shots;
            };
        });
    Counts out;
    for (const Counts& local : locals) mergeCounts(out, local);
    out.truncated = status.truncated;
    return out;
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
