/**
 * @file
 * Density-matrix backend: evolve rho once through the exact gate step
 * (DensityState::applyGate: each gate, then its noise channels applied
 * exactly, with no trajectory sampling), then serve each shot by
 * sampling the final diagonal and applying classical readout error.
 * Capability limits: terminal measurements only, no resets, and a hard
 * qubit cap (4^n matrix entries).
 *
 * Shots are nearly free — one O(log d) cumulative-table draw plus one
 * readout bernoulli per measured bit, through the same terminal sampler
 * the statevector backend uses — which is what makes this backend win
 * for non-Pauli channels on small circuits despite the 4^n state. It
 * fuses by the statevector backend's rule: the router's fused stream
 * unless Kraus noise is active.
 */
#include "backend/backend.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "sim/density.hpp"
#include "sim/engine.hpp"

namespace qa
{
namespace backend
{

namespace
{

class DensityPrepared final : public detail::PreparedBase<DensityPrepared>
{
  public:
    struct Scratch {}; ///< density shots need none

    DensityPrepared(const QuantumCircuit& circuit,
                    const SimOptions& options,
                    const CircuitAnalysis& analysis)
        : num_qubits_(circuit.numQubits()),
          noise_(activeNoise(options.noise)),
          clbits0_(size_t(std::max(circuit.numClbits(), 0)), '0'),
          measures_(analysis.profile.terminal_measures)
    {
        QA_REQUIRE(analysis.profile.terminal_measure_only,
                   "density-matrix backend requires terminal-only "
                   "measurements and no resets");
        QA_REQUIRE(num_qubits_ <= kDensityMaxQubits,
                   "density-matrix backend supports at most " +
                       std::to_string(kDensityMaxQubits) + " qubits");

        // Fuse only when no per-gate Kraus channel is active: fusion
        // changes gate arity, which would redirect the exact gate step's
        // channels to the wrong list (noise_1q vs noise_2q).
        const bool fuse =
            analysis.fused.has_value() && !analysis.plan.kraus_noise;
        const std::vector<Instruction>& program =
            fuse ? analysis.fused->instructions : circuit.instructions();

        DensityState state(num_qubits_);
        for (const Instruction& instr : program) {
            if (instr.type == OpType::kGate) state.applyGate(instr, noise_);
        }

        // Sample the diagonal; clamp tiny negative entries (roundoff).
        const CMatrix& rho = state.rho();
        std::vector<double> weights(size_t(1) << num_qubits_);
        for (size_t i = 0; i < weights.size(); ++i) {
            weights[i] = std::max(0.0, rho(i, i).real());
        }
        table_.emplace(std::move(weights));
    }

    std::string
    runShot(Scratch&, Rng& rng) const
    {
        return sampleTerminalShot(*table_, num_qubits_, measures_, noise_,
                                  clbits0_, rng);
    }

  private:
    int num_qubits_;
    const NoiseModel* noise_;
    std::string clbits0_;
    std::vector<std::pair<int, int>> measures_;
    std::optional<SampleTable> table_;
};

} // namespace

std::shared_ptr<const PreparedCircuit>
detail::prepareDensityMatrix(const QuantumCircuit& circuit,
                             const SimOptions& options,
                             const CircuitAnalysis& analysis)
{
    return std::make_shared<DensityPrepared>(circuit, options, analysis);
}

} // namespace backend
} // namespace qa
