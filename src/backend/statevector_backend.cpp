/**
 * @file
 * The dense statevector engine behind the Backend interface. Prepare
 * evolves the deterministic prefix once (sim/engine.hpp's ShotPlan);
 * each shot then samples the cached state directly (terminal-sampling
 * fast path) or replays the suffix on its sampler's scratch copy.
 *
 * Fusion comes from the router's analysis. Without Kraus noise the
 * prefix ends at the first measurement or reset, which flushes every
 * fusion group, so the whole-circuit fused stream splits there into
 * exactly the fused prefix and suffix. With Kraus noise the prefix ends
 * at a gate and is fused on its own; the suffix stays raw, because
 * fusion changes gate arity and so which channel list a gate draws.
 */
#include "backend/backend.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "sim/engine.hpp"

namespace qa
{
namespace backend
{

namespace
{

/** Apply configured noise channels after a gate touching these qubits. */
void
applyGateNoise(Statevector& state, const Instruction& instr,
               const NoiseModel& noise, Rng& rng)
{
    const auto& channels =
        instr.arity() == 1 ? noise.noise_1q : noise.noise_2q;
    for (int q : instr.qubits) {
        for (const KrausChannel& channel : channels) {
            state.applyKrausTrajectory(channel, q, rng);
        }
    }
}

class StatevectorPrepared final : public PreparedCircuit
{
  public:
    StatevectorPrepared(const QuantumCircuit& circuit,
                        const SimOptions& options,
                        const CircuitAnalysis& analysis)
        : num_qubits_(circuit.numQubits()),
          noise_(options.noise != nullptr && options.noise->enabled()
                     ? options.noise
                     : nullptr),
          prefix_(circuit.numQubits()),
          clbits0_(size_t(std::max(circuit.numClbits(), 0)), '0')
    {
        if (noise_ != nullptr) noise_->validate();
        prefix_.setSimd(options.simd);

        // The naive plan (split = 0, no fast path) replays every
        // instruction per shot: the reference the cached plan must
        // agree with exactly.
        if (!options.naive) plan_ = analyzeShotPlan(circuit, noise_);

        // The stream shots execute, and where its prefix ends.
        const bool fuse = options.fusion && !options.naive;
        const std::vector<Instruction>* stream = &circuit.instructions();
        size_t split = plan_.split;
        if (fuse && !plan_.kraus_noise) {
            QA_REQUIRE(analysis.fused.has_value(),
                       "statevector prepare needs the fused stream");
            stream = &analysis.fused->instructions;
            split = size_t(std::find_if(stream->begin(), stream->end(),
                                        [](const Instruction& instr) {
                                            return instr.type ==
                                                       OpType::kMeasure ||
                                                   instr.type ==
                                                       OpType::kReset;
                                        }) -
                           stream->begin());
        }

        // Evolve the deterministic prefix once. It contains no
        // stochastic instruction, so per-shot RNG draws are unaffected
        // by where the split falls.
        const auto evolve = [&](const std::vector<Instruction>& instrs,
                                size_t end) {
            for (size_t i = 0; i < end; ++i) {
                if (instrs[i].type == OpType::kGate) {
                    prefix_.applyGate(instrs[i]);
                }
            }
        };
        if (fuse && plan_.kraus_noise) {
            const FusedProgram prog = fuseInstructions(
                *stream, 0, split,
                FusionOptions{true, options.fusion_max_qubits});
            evolve(prog.instructions, prog.instructions.size());
        } else {
            evolve(*stream, split);
        }

        if (plan_.terminal_sampling) {
            table_ = std::make_unique<SampleTable>(prefix_);
        } else {
            suffix_.assign(stream->begin() + long(split), stream->end());
        }
    }

    std::unique_ptr<ShotSampler> makeSampler() const override;

    /** True when shots replay the suffix on a scratch copy. */
    bool replays() const { return !plan_.terminal_sampling; }

    const Statevector& prefix() const { return prefix_; }

    /** One shot: sample the cached state, or replay onto `scratch`. */
    std::string
    runShot(Rng& rng, Statevector* scratch) const
    {
        std::string clbits = clbits0_;
        if (plan_.terminal_sampling) {
            const uint64_t index = table_->sample(rng);
            for (const auto& [q, c] : plan_.terminal_measures) {
                int outcome = int((index >> (num_qubits_ - 1 - q)) & 1);
                if (noise_ != nullptr) {
                    outcome = applyReadoutError(outcome, *noise_, rng);
                }
                clbits[size_t(c)] = outcome ? '1' : '0';
            }
            return clbits;
        }

        *scratch = prefix_;
        for (const Instruction& instr : suffix_) {
            switch (instr.type) {
              case OpType::kGate:
                scratch->applyGate(instr);
                if (noise_ != nullptr) {
                    applyGateNoise(*scratch, instr, *noise_, rng);
                }
                break;
              case OpType::kMeasure: {
                int outcome = scratch->measure(instr.qubits[0], rng);
                if (noise_ != nullptr) {
                    outcome = applyReadoutError(outcome, *noise_, rng);
                }
                clbits[size_t(instr.cbit)] = outcome ? '1' : '0';
                break;
              }
              case OpType::kReset:
                scratch->reset(instr.qubits[0], rng);
                break;
              case OpType::kBarrier:
                break;
            }
        }
        return clbits;
    }

  private:
    int num_qubits_;
    const NoiseModel* noise_;
    ShotPlan plan_;
    Statevector prefix_;
    std::unique_ptr<SampleTable> table_;
    std::string clbits0_;

    /** Post-split instructions a replaying shot executes. */
    std::vector<Instruction> suffix_;
};

/**
 * Owns one worker's scratch state, reused across shots so the prefix
 * copy recycles its allocation. Terminal-sampling runs never touch it.
 */
class StatevectorSampler final : public ShotSampler
{
  public:
    explicit StatevectorSampler(const StatevectorPrepared& prepared)
        : prepared_(prepared)
    {
        if (prepared.replays()) scratch_.emplace(prepared.prefix());
    }

    std::string
    runOne(Rng& rng) override
    {
        return prepared_.runShot(rng,
                                 scratch_ ? &*scratch_ : nullptr);
    }

  private:
    const StatevectorPrepared& prepared_;
    std::optional<Statevector> scratch_;
};

std::unique_ptr<ShotSampler>
StatevectorPrepared::makeSampler() const
{
    return std::make_unique<StatevectorSampler>(*this);
}

class StatevectorBackend final : public Backend
{
  public:
    std::shared_ptr<const PreparedCircuit>
    prepare(const QuantumCircuit& circuit, const SimOptions& options,
            const CircuitAnalysis& analysis) const override
    {
        return std::make_shared<StatevectorPrepared>(circuit, options,
                                                     analysis);
    }
};

} // namespace

namespace detail
{

const Backend&
statevectorBackend()
{
    static const StatevectorBackend instance;
    return instance;
}

} // namespace detail

} // namespace backend
} // namespace qa
