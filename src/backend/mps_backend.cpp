/**
 * @file
 * MPS backend: wide low-entanglement circuits on the bond-capped
 * matrix-product-state core (mps/mps_state.hpp), O(chi^3) per two-site
 * update where the dense engines are O(2^n) per instruction.
 *
 * Preparation mirrors the stabilizer backend's prefix split: gates
 * before the first measurement/reset evolve one shared chain; each shot
 * copies it and replays only the stochastic suffix. A second split
 * peels the trailing run of measurements off the suffix: those are
 * served by one left-to-right conditional sample per shot (no collapse,
 * no re-canonicalization), so terminal-measurement circuits never copy
 * the chain at all. A suffix is noise-free (the backend rejects Kraus
 * channels), so each shot first walks its sampler's outcome trie
 * (backend/outcome_trie.hpp), whose leaves keep the post-suffix chains:
 * a hit samples the tail from a cached chain, with no copy and no
 * re-canonicalization. Only a miss replays the suffix.
 *
 * Gate set: any 1q/2q gate with a concrete unitary (2q pairs at any
 * distance — MpsState SWAP-routes). 3q gates (ccx, cswap, the SWAP-test
 * assertion ancilla ops) are lowered to the 1q+CX basis at prepare
 * time. Wider gates, and gate-level Kraus channels, are capability
 * violations and throw kBadRequest; classical readout error is applied
 * to recorded bits exactly like the other backends.
 *
 * The truncation contract: every two-site update discards the Schmidt
 * weight beyond the chi cap and accumulates it. truncationError()
 * reports the shared prefix's total — deterministic for any thread
 * count, and exactly 0.0 when the cap never bound.
 */
#include "backend/backend.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "backend/analyzer.hpp"
#include "backend/outcome_trie.hpp"
#include "common/error.hpp"
#include "mps/mps_state.hpp"
#include "sim/engine.hpp"
#include "transpile/lower.hpp"

namespace qa
{
namespace backend
{

namespace
{

/** One instruction of the MPS execution stream, pre-resolved. */
struct MpsOp
{
    enum class Kind
    {
        k1q,
        k2q,
        kMeasure,
        kReset,
    };

    Kind kind = Kind::k1q;
    CMatrix matrix; ///< 2x2 or 4x4 unitary (gates only)
    int q0 = 0;     ///< target / MSB of the 4x4 index
    int q1 = 0;     ///< LSB of the 4x4 index (2q gates)
    int cbit = -1;  ///< destination bit (measures)
};

/** One pool worker's mutable MPS state. */
struct MpsWorker
{
    mps::MpsState scratch; ///< the chain a replaying shot evolves
    OutcomeTrie trie;      ///< outcome paths of this worker's shots
    std::vector<mps::MpsState> chains; ///< leaf chains, by trie slot
    size_t chain_bytes = 0;            ///< memoryBytes() over chains
};

class MpsPrepared final : public PreparedCircuit
{
  public:
    MpsPrepared(const QuantumCircuit& circuit, const SimOptions& options)
        : prefix_(std::max(circuit.numQubits(), 1),
                  std::max(options.mps_chi, 1)),
          clbits0_(size_t(std::max(circuit.numClbits(), 0)), '0')
    {
        const NoiseModel* noise = options.noise;
        if (noise != nullptr && noise->enabled()) {
            noise->validate();
            QA_REQUIRE_CODE(noise->noise_1q.empty() &&
                                noise->noise_2q.empty(),
                            ErrorCode::kBadRequest,
                            "mps backend cannot run gate-level Kraus "
                            "channels (pure-state chain, no per-gate "
                            "trajectory noise)");
            readout_.readout_p01 = noise->readout_p01;
            readout_.readout_p10 = noise->readout_p10;
        }

        std::vector<MpsOp> ops;
        for (const Instruction& instr : circuit.instructions()) {
            resolveInstruction(instr, circuit.numQubits(), &ops);
        }

        // Deterministic prefix: gates before the first collapse evolve
        // the shared chain once.
        size_t split = ops.size();
        for (size_t i = 0; i < ops.size(); ++i) {
            if (ops[i].kind == MpsOp::Kind::kMeasure ||
                ops[i].kind == MpsOp::Kind::kReset) {
                split = i;
                break;
            }
        }
        for (size_t i = 0; i < split; ++i) applyGateOp(&prefix_, ops[i]);

        // Peel the trailing all-measure run: it is served by one
        // conditional sample instead of per-measure collapse sweeps.
        size_t tail = ops.size();
        while (tail > split &&
               ops[tail - 1].kind == MpsOp::Kind::kMeasure) {
            --tail;
        }
        tail_.assign(ops.begin() + long(tail), ops.end());
        suffix_.assign(std::make_move_iterator(ops.begin() + long(split)),
                       std::make_move_iterator(ops.begin() + long(tail)));
        for (const MpsOp& op : suffix_) {
            if (op.kind == MpsOp::Kind::kMeasure) {
                stop_cbits_.push_back(op.cbit);
            } else if (op.kind == MpsOp::Kind::kReset) {
                stop_cbits_.push_back(-1);
            }
        }
    }

    std::unique_ptr<ShotSampler> makeSampler() const override;

    double
    truncationError() const override
    {
        return prefix_.stats().discarded_weight;
    }

    /**
     * One trajectory: the suffix from the worker's outcome trie, or
     * replayed on its scratch chain when the walk falls off; then the
     * tail.
     */
    std::string
    runShot(MpsWorker& worker, Rng& rng) const
    {
        std::string clbits = clbits0_;
        const mps::MpsState* state = &prefix_;
        if (!suffix_.empty()) {
            const Rng start = rng;
            const int leaf =
                worker.trie.walk(rng, [&](size_t d, int outcome) {
                    writeBit(stop_cbits_[d], outcome, rng, clbits);
                });
            if (leaf >= 0 && tail_.empty()) return clbits;
            const int chain = leaf < 0 ? -1 : worker.trie.slot(leaf);
            if (chain >= 0) {
                state = &worker.chains[size_t(chain)];
            } else {
                rng = start;
                clbits = clbits0_;
                replaySuffix(worker, rng, clbits);
                state = &worker.scratch;
            }
        }
        if (!tail_.empty()) {
            std::string bits;
            state->sampleAll(rng, &bits);
            for (const MpsOp& op : tail_) {
                writeBit(op.cbit, bits[size_t(op.q0)] == '1' ? 1 : 0, rng,
                         clbits);
            }
        }
        return clbits;
    }

    const mps::MpsState& prefix() const { return prefix_; }

  private:
    /** Resolve one instruction, lowering 3q gates to the 1q+CX basis. */
    void
    resolveInstruction(const Instruction& instr, int num_qubits,
                       std::vector<MpsOp>* ops)
    {
        switch (instr.type) {
          case OpType::kGate: {
            const int arity = instr.arity();
            if (arity <= 2) {
                QA_REQUIRE_CODE(
                    instr.matrix.rows() == (arity == 1 ? 2u : 4u),
                    ErrorCode::kBadRequest,
                    "mps backend needs a concrete unitary for gate '" +
                        instr.name + "'");
                MpsOp op;
                op.kind = arity == 1 ? MpsOp::Kind::k1q
                                     : MpsOp::Kind::k2q;
                op.matrix = instr.matrix;
                op.q0 = instr.qubits[0];
                if (arity == 2) op.q1 = instr.qubits[1];
                ops->push_back(std::move(op));
                return;
            }
            QA_REQUIRE_CODE(arity == 3, ErrorCode::kBadRequest,
                            "mps backend cannot run " +
                                std::to_string(arity) +
                                "-qubit gate '" + instr.name +
                                "' (max arity 3, lowered)");
            // Lower through the transpiler on a full-width scratch
            // circuit so qubit indices survive unchanged.
            QuantumCircuit wrapper(num_qubits, 0);
            wrapper.append(instr);
            const QuantumCircuit lowered = lowerToBasis(wrapper);
            for (const Instruction& low : lowered.instructions()) {
                QA_REQUIRE(low.isGate() && low.arity() <= 2,
                           "basis lowering produced a non-basis op");
                resolveInstruction(low, num_qubits, ops);
            }
            return;
          }
          case OpType::kMeasure: {
            MpsOp op;
            op.kind = MpsOp::Kind::kMeasure;
            op.q0 = instr.qubits[0];
            op.cbit = instr.cbit;
            ops->push_back(std::move(op));
            return;
          }
          case OpType::kReset: {
            MpsOp op;
            op.kind = MpsOp::Kind::kReset;
            op.q0 = instr.qubits[0];
            ops->push_back(std::move(op));
            return;
          }
          case OpType::kBarrier:
            return;
        }
    }

    static void
    applyGateOp(mps::MpsState* state, const MpsOp& op)
    {
        if (op.kind == MpsOp::Kind::k1q) {
            state->apply1q(op.matrix, op.q0);
        } else {
            state->apply2q(op.matrix, op.q0, op.q1);
        }
    }

    /**
     * Replay the suffix on the worker's scratch chain, recording its
     * outcome path; a completed path keeps the chain as its leaf while
     * the worker's leaf budget lasts.
     */
    void
    replaySuffix(MpsWorker& worker, Rng& rng, std::string& clbits) const
    {
        OutcomeTrie::Recorder recorder(&worker.trie);
        mps::MpsState& scratch = worker.scratch;
        scratch = prefix_;
        for (const MpsOp& op : suffix_) {
            switch (op.kind) {
              case MpsOp::Kind::k1q:
              case MpsOp::Kind::k2q:
                applyGateOp(&scratch, op);
                break;
              case MpsOp::Kind::kMeasure:
              case MpsOp::Kind::kReset: {
                const OutcomeDraw draw{OutcomeDraw::Kind::kZeroBelow, 0,
                                       scratch.probabilityZero(op.q0)};
                const int outcome = draw.outcome(rng);
                recorder.record(draw, outcome);
                scratch.collapseTo(op.q0, outcome);
                if (op.kind == MpsOp::Kind::kMeasure) {
                    writeBit(op.cbit, outcome, rng, clbits);
                } else if (outcome == 1) {
                    scratch.applyX(op.q0);
                }
                break;
              }
            }
        }
        const int leaf = recorder.finish();
        if (leaf < 0 || tail_.empty() || worker.trie.slot(leaf) >= 0) {
            return;
        }
        const size_t bytes = scratch.memoryBytes();
        if (worker.chain_bytes + bytes > OutcomeTrie::kMaxLeafBytes) return;
        worker.trie.setSlot(leaf, int(worker.chains.size()));
        worker.chains.push_back(scratch);
        worker.chain_bytes += bytes;
    }

    /** Record a measured outcome (cbit < 0: a reset, nothing to do). */
    void
    writeBit(int cbit, int outcome, Rng& rng, std::string& clbits) const
    {
        if (cbit < 0) return;
        outcome = applyReadoutError(outcome, readout_, rng);
        clbits[size_t(cbit)] = outcome ? '1' : '0';
    }

    mps::MpsState prefix_;
    std::string clbits0_;
    NoiseModel readout_; ///< readout error only; no channels
    std::vector<MpsOp> suffix_;
    std::vector<MpsOp> tail_;

    /** Clbit of each suffix measurement in order, -1 for a reset. */
    std::vector<int> stop_cbits_;
};

class MpsSampler final : public ShotSampler
{
  public:
    explicit MpsSampler(const MpsPrepared& prepared)
        : prepared_(prepared), worker_{prepared.prefix(), {}, {}, 0}
    {}

    std::string
    runOne(Rng& rng) override
    {
        return prepared_.runShot(worker_, rng);
    }

  private:
    const MpsPrepared& prepared_;
    MpsWorker worker_;
};

std::unique_ptr<ShotSampler>
MpsPrepared::makeSampler() const
{
    return std::make_unique<MpsSampler>(*this);
}

class MpsBackend final : public Backend
{
  public:
    std::shared_ptr<const PreparedCircuit>
    prepare(const QuantumCircuit& circuit, const SimOptions& options,
            const CircuitAnalysis&) const override
    {
        return std::make_shared<MpsPrepared>(circuit, options);
    }
};

} // namespace

namespace detail
{

const Backend&
mpsBackend()
{
    static const MpsBackend instance;
    return instance;
}

} // namespace detail

} // namespace backend
} // namespace qa
