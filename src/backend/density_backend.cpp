/**
 * @file
 * Density-matrix backend: evolve rho once through every gate with its
 * noise channels applied exactly (no trajectory sampling), then serve
 * each shot by sampling the final diagonal and applying classical
 * readout error. Capability limits: terminal measurements only, no
 * resets, and a hard qubit cap (4^n matrix entries).
 *
 * Shots are nearly free — one O(log d) cumulative-table draw plus one
 * readout bernoulli per measured bit — which is what makes this backend
 * win for non-Pauli channels on small circuits despite the 4^n state.
 */
#include "backend/backend.hpp"

#include <algorithm>
#include <cmath>

#include "backend/analyzer.hpp"
#include "common/error.hpp"
#include "sim/density.hpp"
#include "sim/engine.hpp"

namespace qa
{
namespace backend
{

namespace
{

constexpr int kMaxQubits = 8;

class DensityPrepared final : public PreparedCircuit
{
  public:
    DensityPrepared(const QuantumCircuit& circuit,
                    const SimOptions& options,
                    const CircuitAnalysis& analysis)
        : num_qubits_(circuit.numQubits()),
          noise_(options.noise != nullptr && options.noise->enabled()
                     ? options.noise
                     : nullptr),
          clbits0_(size_t(std::max(circuit.numClbits(), 0)), '0')
    {
        if (noise_ != nullptr) noise_->validate();

        const CircuitProfile& profile = analysis.profile;
        QA_REQUIRE(profile.terminal_measure_only,
                   "density-matrix backend requires terminal-only "
                   "measurements and no resets");
        QA_REQUIRE(num_qubits_ <= kMaxQubits,
                   "density-matrix backend supports at most " +
                       std::to_string(kMaxQubits) + " qubits");
        measures_ = profile.terminal_measures;

        // Fuse only when no per-gate Kraus channel is active: fusion
        // changes gate arity, which would redirect the channel loop
        // below to the wrong list (noise_1q vs noise_2q).
        const bool kraus =
            noise_ != nullptr && (!noise_->noise_1q.empty() ||
                                  !noise_->noise_2q.empty());
        const bool fuse = options.fusion && !kraus;
        QA_REQUIRE(!fuse || analysis.fused.has_value(),
                   "density-matrix prepare needs the fused stream");
        const std::vector<Instruction>& program =
            fuse ? analysis.fused->instructions : circuit.instructions();

        // Exact evolution: gate, then that gate's channels on each
        // touched qubit — the same ordering the statevector engine uses
        // for its per-shot trajectories, so distributions match.
        DensityState state(num_qubits_);
        state.setSimd(options.simd);
        for (const Instruction& instr : program) {
            if (instr.type != OpType::kGate) continue;
            state.applyGate(instr);
            if (noise_ == nullptr) continue;
            const auto& channels = instr.arity() == 1
                                       ? noise_->noise_1q
                                       : noise_->noise_2q;
            for (int q : instr.qubits) {
                for (const KrausChannel& channel : channels) {
                    state.applyKraus(channel, q);
                }
            }
        }

        // Cumulative table over the diagonal: each shot is one
        // O(log d) draw. Clamp tiny negative diagonals (roundoff).
        const CMatrix& rho = state.rho();
        const size_t dim = size_t(1) << num_qubits_;
        cumulative_.resize(dim);
        double acc = 0.0;
        for (size_t i = 0; i < dim; ++i) {
            acc += std::max(0.0, rho(i, i).real());
            cumulative_[i] = acc;
        }
        QA_REQUIRE(acc > 1e-14,
                   "density evolution produced a zero-mass diagonal");
    }

    std::unique_ptr<ShotSampler> makeSampler() const override;

    std::string
    sampleShot(Rng& rng) const
    {
        const double draw = rng.uniform() * cumulative_.back();
        const auto it = std::upper_bound(cumulative_.begin(),
                                         cumulative_.end(), draw);
        const uint64_t index =
            it == cumulative_.end()
                ? uint64_t(cumulative_.size()) - 1
                : uint64_t(it - cumulative_.begin());

        std::string clbits = clbits0_;
        for (const auto& [q, c] : measures_) {
            int outcome = int((index >> (num_qubits_ - 1 - q)) & 1);
            if (noise_ != nullptr) {
                outcome = applyReadoutError(outcome, *noise_, rng);
            }
            clbits[size_t(c)] = outcome ? '1' : '0';
        }
        return clbits;
    }

  private:
    int num_qubits_;
    const NoiseModel* noise_;
    std::string clbits0_;
    std::vector<std::pair<int, int>> measures_;
    std::vector<double> cumulative_;
};

class DensitySampler final : public ShotSampler
{
  public:
    explicit DensitySampler(const DensityPrepared& prepared)
        : prepared_(prepared)
    {}

    std::string
    runOne(Rng& rng) override
    {
        return prepared_.sampleShot(rng);
    }

  private:
    const DensityPrepared& prepared_;
};

std::unique_ptr<ShotSampler>
DensityPrepared::makeSampler() const
{
    return std::make_unique<DensitySampler>(*this);
}

class DensityBackend final : public Backend
{
  public:
    std::shared_ptr<const PreparedCircuit>
    prepare(const QuantumCircuit& circuit, const SimOptions& options,
            const CircuitAnalysis& analysis) const override
    {
        return std::make_shared<DensityPrepared>(circuit, options,
                                                 analysis);
    }
};

} // namespace

namespace detail
{

const Backend&
densityMatrixBackend()
{
    static const DensityBackend instance;
    return instance;
}

} // namespace detail

} // namespace backend
} // namespace qa
