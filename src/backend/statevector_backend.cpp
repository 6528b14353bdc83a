/**
 * @file
 * The dense statevector engine behind the Backend interface. Prepare
 * evolves the deterministic prefix once (sim/engine.hpp's ShotPlan);
 * each shot then samples the cached state directly (terminal-sampling
 * fast path) or replays the suffix on its sampler's scratch copy. When
 * no suffix gate draws, a replaying shot first walks its sampler's
 * outcome trie (backend/outcome_trie.hpp) and replays only on a miss.
 *
 * The router's analysis decides what runs: its shot plan places the
 * split and picks terminal sampling, and its fused stream replaces the
 * raw gates unless Kraus noise is active. Without Kraus noise the
 * prefix ends at the first measurement or reset, which flushes every
 * fusion group, so the whole-circuit fused stream splits there into
 * exactly the fused prefix and suffix. With Kraus noise the whole
 * stream stays raw, because fusion changes gate arity and so which
 * channel list a gate draws.
 */
#include "backend/backend.hpp"

#include <algorithm>
#include <optional>

#include "backend/outcome_trie.hpp"
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
          plan_(analysis.plan),
          prefix_(circuit.numQubits()),
          clbits0_(size_t(std::max(circuit.numClbits(), 0)), '0')
    {
        if (noise_ != nullptr) noise_->validate();

        // The stream shots execute, and where its prefix ends.
        const bool fuse = analysis.fused.has_value() && !plan_.kraus_noise;
        const std::vector<Instruction>& stream =
            fuse ? analysis.fused->instructions : circuit.instructions();
        size_t split = plan_.split;
        if (fuse) {
            split = size_t(std::find_if(stream.begin(), stream.end(),
                                        [](const Instruction& instr) {
                                            return instr.type ==
                                                       OpType::kMeasure ||
                                                   instr.type ==
                                                       OpType::kReset;
                                        }) -
                           stream.begin());
        }

        // Evolve the deterministic prefix once. It contains no
        // stochastic instruction, so per-shot RNG draws are unaffected
        // by where the split falls.
        for (size_t i = 0; i < split; ++i) {
            if (stream[i].type == OpType::kGate) {
                prefix_.applyGate(stream[i]);
            }
        }

        if (plan_.terminal_sampling) {
            table_ = std::make_unique<SampleTable>(prefix_);
        } else {
            suffix_.assign(stream.begin() + long(split), stream.end());
            memoizes_ = true;
            for (const Instruction& instr : suffix_) {
                if (instr.type == OpType::kMeasure) {
                    stop_cbits_.push_back(instr.cbit);
                } else if (instr.type == OpType::kReset) {
                    stop_cbits_.push_back(-1);
                } else if (instr.type == OpType::kGate &&
                           noise_ != nullptr) {
                    memoizes_ &= (instr.arity() == 1 ? noise_->noise_1q
                                                     : noise_->noise_2q)
                                     .empty();
                }
            }
        }
    }

    std::unique_ptr<ShotSampler> makeSampler() const override;

    /** True when shots replay the suffix on a scratch copy. */
    bool replays() const { return !plan_.terminal_sampling; }

    /**
     * True when replaying shots may walk an outcome trie: no suffix gate
     * draws from the stream. Tested on the model itself, since a gate
     * draws whenever its arity's channel list is non-empty.
     */
    bool memoizes() const { return memoizes_; }

    const Statevector& prefix() const { return prefix_; }

    /**
     * One shot: sample the cached state, or walk `trie` (null: no trie)
     * and replay onto `scratch` when the walk falls off.
     */
    std::string
    runShot(Rng& rng, Statevector* scratch, OutcomeTrie* trie) const
    {
        if (plan_.terminal_sampling) {
            return sampleTerminalShot(*table_, num_qubits_,
                                      plan_.terminal_measures, noise_,
                                      clbits0_, rng);
        }

        std::string clbits = clbits0_;
        if (trie != nullptr) {
            const Rng start = rng;
            const int leaf =
                trie->walk(rng, [&](size_t d, int outcome) {
                    writeBit(stop_cbits_[d], outcome, rng, clbits);
                });
            if (leaf >= 0) return clbits;
            rng = start;
            clbits = clbits0_;
        }

        OutcomeTrie::Recorder recorder(trie);
        *scratch = prefix_;
        for (const Instruction& instr : suffix_) {
            switch (instr.type) {
              case OpType::kGate:
                scratch->applyGate(instr);
                if (noise_ != nullptr) {
                    applyGateNoise(*scratch, instr, *noise_, rng);
                }
                break;
              case OpType::kMeasure:
              case OpType::kReset: {
                const int q = instr.qubits[0];
                const OutcomeDraw draw{OutcomeDraw::Kind::kOneBelow, 0,
                                       scratch->probabilityOne(q)};
                const int outcome = draw.outcome(rng);
                recorder.record(draw, outcome);
                scratch->collapse(q, outcome);
                if (instr.type == OpType::kMeasure) {
                    writeBit(instr.cbit, outcome, rng, clbits);
                } else if (outcome == 1) {
                    scratch->applyX(q);
                }
                break;
              }
              case OpType::kBarrier:
                break;
            }
        }
        recorder.finish();
        return clbits;
    }

  private:
    /** Record a measured outcome (cbit < 0: a reset, nothing to do). */
    void
    writeBit(int cbit, int outcome, Rng& rng, std::string& clbits) const
    {
        if (cbit < 0) return;
        if (noise_ != nullptr) {
            outcome = applyReadoutError(outcome, *noise_, rng);
        }
        clbits[size_t(cbit)] = outcome ? '1' : '0';
    }

    int num_qubits_;
    const NoiseModel* noise_;
    ShotPlan plan_;
    Statevector prefix_;
    std::unique_ptr<SampleTable> table_;
    std::string clbits0_;

    /** Post-split instructions a replaying shot executes. */
    std::vector<Instruction> suffix_;

    /** Clbit of each suffix measurement in order, -1 for a reset. */
    std::vector<int> stop_cbits_;
    bool memoizes_ = false;
};

/**
 * Owns one worker's scratch state, reused across shots so the prefix
 * copy recycles its allocation, and its outcome trie. Terminal-sampling
 * runs never touch either.
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
        return prepared_.runShot(rng, scratch_ ? &*scratch_ : nullptr,
                                 prepared_.memoizes() ? &trie_ : nullptr);
    }

  private:
    const StatevectorPrepared& prepared_;
    std::optional<Statevector> scratch_;
    OutcomeTrie trie_;
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
