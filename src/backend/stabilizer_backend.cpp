/**
 * @file
 * Stabilizer backend: Clifford circuits on the Aaronson-Gottesman
 * tableau (stab/tableau.hpp), polynomial in the qubit count where the
 * dense engines are exponential.
 *
 * Preparation mirrors the statevector engine's prefix split: the
 * instructions before the first stochastic point (measurement, reset,
 * or a gate with an active Pauli channel) evolve one shared tableau;
 * each shot copies it (O(n^2) bytes) and replays only the stochastic
 * suffix. When no suffix gate is noisy, a shot first walks its
 * sampler's outcome trie (backend/outcome_trie.hpp), which answers it
 * with no tableau copy at all, and replays only on a miss. Gates are
 * applied by name when the tableau knows them and via Clifford
 * recognition (stab/clifford.hpp) otherwise, so rz(pi/2) or a Clifford
 * `unitary` instruction routes here too.
 *
 * Noise: Pauli-mixture Kraus channels are sampled per trajectory as
 * sign-only tableau updates (probabilities are state-independent, which
 * is exactly what recognizePauliChannel certifies); classical readout
 * error reuses the engine's applyReadoutError. Non-Pauli channels and
 * non-Clifford gates are capability violations and throw kBadRequest.
 */
#include "backend/backend.hpp"

#include <algorithm>

#include "backend/analyzer.hpp"
#include "backend/outcome_trie.hpp"
#include "common/error.hpp"
#include "sim/engine.hpp"
#include "stab/tableau.hpp"

namespace qa
{
namespace backend
{

namespace
{

/** One instruction of the per-shot stochastic suffix, pre-resolved. */
struct SuffixOp
{
    enum class Kind
    {
        kNamedGate,    ///< tableau applyGate by name
        kCliffordGate, ///< recognized action via applyClifford
        kMeasure,
        kReset,
    };

    Kind kind = Kind::kNamedGate;
    Instruction instr;    ///< named gates (owned copy; no borrowing)
    CliffordAction action; ///< recognized gates
    std::vector<int> qubits;
    int cbit = -1;
    bool noisy = false;  ///< Pauli channels follow this gate
    bool two_q = false;  ///< which channel list applies
};

class StabilizerPrepared final : public PreparedCircuit
{
  public:
    StabilizerPrepared(const QuantumCircuit& circuit,
                       const NoiseModel* noise)
        : prefix_(std::max(circuit.numQubits(), 1)),
          clbits0_(size_t(std::max(circuit.numClbits(), 0)), '0')
    {
        const NoiseModel* active =
            noise != nullptr && noise->enabled() ? noise : nullptr;
        if (active != nullptr) {
            active->validate();
            readout_.readout_p01 = active->readout_p01;
            readout_.readout_p10 = active->readout_p10;
            adoptChannels(active->noise_1q, &chan1_);
            adoptChannels(active->noise_2q, &chan2_);
        }

        // Resolve every instruction up front (named / recognized /
        // stochastic), rejecting anything outside the Clifford+Pauli
        // capability set with a clear error.
        std::vector<SuffixOp> ops;
        for (const Instruction& instr : circuit.instructions()) {
            switch (instr.type) {
              case OpType::kGate: {
                SuffixOp op;
                op.qubits = instr.qubits;
                op.two_q = instr.arity() != 1;
                op.noisy = !(op.two_q ? chan2_ : chan1_).empty();
                if (isNamedCliffordGate(instr)) {
                    op.kind = SuffixOp::Kind::kNamedGate;
                    op.instr = instr;
                } else {
                    std::optional<CliffordAction> action =
                        recognizeClifford(instr);
                    QA_REQUIRE_CODE(action.has_value(),
                                    ErrorCode::kBadRequest,
                                    "stabilizer backend cannot run "
                                    "non-Clifford gate '" +
                                        instr.name + "'");
                    op.kind = SuffixOp::Kind::kCliffordGate;
                    op.action = std::move(*action);
                }
                ops.push_back(std::move(op));
                break;
              }
              case OpType::kMeasure: {
                SuffixOp op;
                op.kind = SuffixOp::Kind::kMeasure;
                op.qubits = instr.qubits;
                op.cbit = instr.cbit;
                ops.push_back(std::move(op));
                break;
              }
              case OpType::kReset: {
                SuffixOp op;
                op.kind = SuffixOp::Kind::kReset;
                op.qubits = instr.qubits;
                ops.push_back(std::move(op));
                break;
              }
              case OpType::kBarrier:
                break;
            }
        }

        // Deterministic prefix: everything before the first stochastic
        // op evolves the shared tableau once; shots replay the rest.
        size_t split = ops.size();
        for (size_t i = 0; i < ops.size(); ++i) {
            const SuffixOp& op = ops[i];
            const bool stochastic =
                op.kind == SuffixOp::Kind::kMeasure ||
                op.kind == SuffixOp::Kind::kReset ||
                op.noisy;
            if (stochastic) {
                split = i;
                break;
            }
        }
        for (size_t i = 0; i < split; ++i) applyGateOp(prefix_, ops[i]);
        suffix_.assign(std::make_move_iterator(ops.begin() +
                                               long(split)),
                       std::make_move_iterator(ops.end()));
        for (const SuffixOp& op : suffix_) {
            if (op.kind == SuffixOp::Kind::kMeasure) {
                stop_cbits_.push_back(op.cbit);
            } else if (op.kind == SuffixOp::Kind::kReset) {
                stop_cbits_.push_back(-1);
            }
            memoizes_ &= !op.noisy;
        }
    }

    std::unique_ptr<ShotSampler> makeSampler() const override;

    /**
     * True when shots may walk an outcome trie: no suffix gate carries
     * Pauli noise, so only measurements draw.
     */
    bool memoizes() const { return memoizes_; }

    /**
     * One trajectory: walk `trie` (null: no trie); when the walk falls
     * off, copy the prefix tableau and replay the suffix.
     */
    std::string
    runShot(StabilizerTableau& scratch, OutcomeTrie* trie, Rng& rng) const
    {
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
        scratch = prefix_;
        for (const SuffixOp& op : suffix_) {
            switch (op.kind) {
              case SuffixOp::Kind::kNamedGate:
              case SuffixOp::Kind::kCliffordGate:
                applyGateOp(scratch, op);
                if (op.noisy) applyPauliNoise(scratch, op, rng);
                break;
              case SuffixOp::Kind::kMeasure:
              case SuffixOp::Kind::kReset: {
                // A random outcome is the tableau's bernoulli(0.5) draw;
                // a deterministic one draws nothing.
                const int q = op.qubits[0];
                const bool fixed =
                    recorder.recording() && scratch.isDeterministic(q);
                const int outcome = scratch.measure(q, rng);
                recorder.record(
                    fixed ? OutcomeDraw{OutcomeDraw::Kind::kFixed,
                                        uint8_t(outcome), 0.0}
                          : OutcomeDraw{OutcomeDraw::Kind::kFairCoin, 0,
                                        0.0},
                    outcome);
                if (op.kind == SuffixOp::Kind::kMeasure) {
                    writeBit(op.cbit, outcome, rng, clbits);
                } else if (outcome == 1) {
                    // Measure-and-correct, as on the other backends.
                    scratch.applyX(q);
                }
                break;
              }
            }
        }
        recorder.finish();
        return clbits;
    }

    const StabilizerTableau& prefix() const { return prefix_; }

  private:
    static void
    applyGateOp(StabilizerTableau& tableau, const SuffixOp& op)
    {
        if (op.kind == SuffixOp::Kind::kNamedGate) {
            tableau.applyGate(op.instr);
        } else {
            tableau.applyClifford(op.action, op.qubits);
        }
    }

    void
    adoptChannels(const std::vector<KrausChannel>& channels,
                  std::vector<PauliChannel>* out)
    {
        for (const KrausChannel& channel : channels) {
            std::optional<PauliChannel> pauli =
                recognizePauliChannel(channel);
            QA_REQUIRE_CODE(pauli.has_value(), ErrorCode::kBadRequest,
                            "stabilizer backend cannot run non-Pauli "
                            "Kraus channel '" +
                                channel.name() + "'");
            out->push_back(std::move(*pauli));
        }
    }

    /** Sample one Pauli per channel per touched qubit (engine order). */
    void
    applyPauliNoise(StabilizerTableau& tableau, const SuffixOp& op,
                    Rng& rng) const
    {
        const std::vector<PauliChannel>& channels =
            op.two_q ? chan2_ : chan1_;
        for (int q : op.qubits) {
            for (const PauliChannel& channel : channels) {
                const size_t pick = rng.discrete(channel.weights);
                const auto [x, z] = channel.paulis[pick];
                if (x && z) {
                    tableau.applyY(q);
                } else if (x) {
                    tableau.applyX(q);
                } else if (z) {
                    tableau.applyZ(q);
                }
            }
        }
    }

    /** Record a measured outcome (cbit < 0: a reset, nothing to do). */
    void
    writeBit(int cbit, int outcome, Rng& rng, std::string& clbits) const
    {
        if (cbit < 0) return;
        outcome = applyReadoutError(outcome, readout_, rng);
        clbits[size_t(cbit)] = outcome ? '1' : '0';
    }

    StabilizerTableau prefix_;
    std::string clbits0_;
    NoiseModel readout_; ///< readout error only; no channels
    std::vector<PauliChannel> chan1_;
    std::vector<PauliChannel> chan2_;
    std::vector<SuffixOp> suffix_;

    /** Clbit of each suffix measurement in order, -1 for a reset. */
    std::vector<int> stop_cbits_;
    bool memoizes_ = true;
};

class StabilizerSampler final : public ShotSampler
{
  public:
    explicit StabilizerSampler(const StabilizerPrepared& prepared)
        : prepared_(prepared), scratch_(prepared.prefix())
    {}

    std::string
    runOne(Rng& rng) override
    {
        return prepared_.runShot(
            scratch_, prepared_.memoizes() ? &trie_ : nullptr, rng);
    }

  private:
    const StabilizerPrepared& prepared_;
    StabilizerTableau scratch_;
    OutcomeTrie trie_;
};

std::unique_ptr<ShotSampler>
StabilizerPrepared::makeSampler() const
{
    return std::make_unique<StabilizerSampler>(*this);
}

class StabilizerBackend final : public Backend
{
  public:
    std::shared_ptr<const PreparedCircuit>
    prepare(const QuantumCircuit& circuit, const SimOptions& options,
            const CircuitAnalysis&) const override
    {
        return std::make_shared<StabilizerPrepared>(circuit,
                                                    options.noise);
    }
};

} // namespace

namespace detail
{

const Backend&
stabilizerBackend()
{
    static const StabilizerBackend instance;
    return instance;
}

} // namespace detail

} // namespace backend
} // namespace qa
