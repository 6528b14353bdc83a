/**
 * @file
 * MPS backend: wide low-entanglement circuits on the bond-capped
 * matrix-product-state core (mps/mps_state.hpp), O(chi^3) per two-site
 * update where the dense engines are O(2^n) per instruction.
 *
 * Preparation evolves one shared chain through the prefix the router's
 * shot plan names; each shot runs the shared suffix replay
 * (backend/suffix_replay.hpp), whose measurement is `uniform() < P(0)`
 * then a collapse. The trailing run of measurements is peeled off the
 * suffix and served by one left-to-right conditional sample per shot
 * (no collapse, no re-canonicalization), so terminal-measurement
 * circuits never copy the chain at all. A replayed path keeps its
 * post-suffix chain at its trie leaf, and a trie hit samples the tail
 * from that chain, with no copy and no re-canonicalization.
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

#include "backend/suffix_replay.hpp"
#include "common/error.hpp"
#include "mps/mps_state.hpp"
#include "transpile/lower.hpp"

namespace qa
{
namespace backend
{

namespace
{

/** A 1q or 2q unitary on the chain. */
struct MpsGate
{
    CMatrix matrix; ///< 2x2 or 4x4 unitary
    int q0 = 0;     ///< target / MSB of the 4x4 index
    int q1 = -1;    ///< LSB of the 4x4 index; -1 for a 1q gate
};

/**
 * The chain's replay steps (see backend/suffix_replay.hpp). A pure-state
 * chain has no per-gate trajectory noise, so they reject a model with
 * gate-level Kraus channels.
 */
struct MpsSteps
{
    using State = mps::MpsState;
    using Gate = MpsGate;

    MpsSteps(int qubits, const NoiseModel* noise) : num_qubits(qubits)
    {
        QA_REQUIRE_CODE(noise == nullptr || (noise->noise_1q.empty() &&
                                             noise->noise_2q.empty()),
                        ErrorCode::kBadRequest,
                        "mps backend cannot run gate-level Kraus channels "
                        "(pure-state chain, no per-gate trajectory noise)");
    }

    int num_qubits;

    /** Lowers 3q gates to the 1q+CX basis. */
    template <typename Emit>
    void
    resolve(const Instruction& instr, Emit&& emit) const
    {
        const int arity = instr.arity();
        if (arity <= 2) {
            QA_REQUIRE_CODE(instr.matrix.rows() == (arity == 1 ? 2u : 4u),
                            ErrorCode::kBadRequest,
                            "mps backend needs a concrete unitary for "
                            "gate '" +
                                instr.name + "'");
            emit(Gate{instr.matrix, instr.qubits[0],
                      arity == 2 ? instr.qubits[1] : -1});
            return;
        }
        QA_REQUIRE_CODE(arity == 3, ErrorCode::kBadRequest,
                        "mps backend cannot run " + std::to_string(arity) +
                            "-qubit gate '" + instr.name +
                            "' (max arity 3, lowered)");
        // Lower through the transpiler on a full-width scratch circuit
        // so qubit indices survive unchanged.
        QuantumCircuit wrapper(num_qubits, 0);
        wrapper.append(instr);
        const QuantumCircuit lowered = lowerToBasis(wrapper);
        for (const Instruction& low : lowered.instructions()) {
            QA_REQUIRE(low.isGate() && low.arity() <= 2,
                       "basis lowering produced a non-basis op");
            resolve(low, emit);
        }
    }

    void
    apply(State& state, const Gate& gate) const
    {
        if (gate.q1 < 0) {
            state.apply1q(gate.matrix, gate.q0);
        } else {
            state.apply2q(gate.matrix, gate.q0, gate.q1);
        }
    }

    bool noisy(const Gate&) const { return false; }
    void applyNoise(State&, const Gate&, Rng&) const {}

    int
    measure(State& state, int q, Rng& rng, OutcomeDraw* record) const
    {
        const OutcomeDraw draw{OutcomeDraw::Kind::kZeroBelow, 0,
                               state.probabilityZero(q)};
        const int outcome = draw.outcome(rng);
        state.collapseTo(q, outcome);
        if (record != nullptr) *record = draw;
        return outcome;
    }
};

/**
 * First instruction of the trailing measure/barrier run after `split`:
 * those measurements are peeled off the suffix.
 */
size_t
tailStart(const std::vector<Instruction>& instrs, size_t split)
{
    size_t tail = instrs.size();
    while (tail > split && (instrs[tail - 1].type == OpType::kMeasure ||
                            instrs[tail - 1].type == OpType::kBarrier)) {
        --tail;
    }
    return tail;
}

class MpsPrepared final : public detail::PreparedBase<MpsPrepared>
{
  public:
    /** One worker's replay scratch, plus the chains its leaves keep. */
    struct Scratch
    {
        SuffixReplay<MpsSteps>::Scratch replay;
        std::vector<mps::MpsState> chains; ///< leaf chains, by trie slot
        size_t chain_bytes = 0;            ///< memoryBytes() over chains
    };

    MpsPrepared(const QuantumCircuit& circuit, const SimOptions& options,
                const CircuitAnalysis& analysis)
        : replay_(MpsSteps(circuit.numQubits(),
                           activeNoise(options.noise)),
                  mps::MpsState(std::max(circuit.numQubits(), 1),
                                std::max(options.mps_chi, 1)),
                  circuit.instructions(), analysis.plan.split,
                  tailStart(circuit.instructions(), analysis.plan.split),
                  circuit.numClbits(), options.noise)
    {
        const std::vector<Instruction>& instrs = circuit.instructions();
        for (size_t i = tailStart(instrs, analysis.plan.split);
             i < instrs.size(); ++i) {
            if (instrs[i].type == OpType::kMeasure) {
                tail_.emplace_back(instrs[i].qubits[0], instrs[i].cbit);
            }
        }
    }

    double
    truncationError() const override
    {
        return replay_.prefix().stats().discarded_weight;
    }

    /** One trajectory: the suffix through the shared replay, then the tail. */
    std::string
    runShot(Scratch& scratch, Rng& rng) const
    {
        std::string clbits = replay_.clbits0();
        const mps::MpsState* state = &replay_.prefix();
        if (!replay_.empty()) {
            // A hit needs its leaf's chain to sample the tail from.
            const OutcomeTrie& trie = scratch.replay.trie;
            const SuffixRun run =
                replay_.run(scratch.replay, rng, clbits, [&](int leaf) {
                    return tail_.empty() || trie.slot(leaf) >= 0;
                });
            if (run.replayed) {
                state = &*scratch.replay.state;
                keepChain(scratch, run.leaf);
            } else if (!tail_.empty()) {
                state = &scratch.chains[size_t(trie.slot(run.leaf))];
            }
        }
        if (!tail_.empty()) {
            std::string bits;
            state->sampleAll(rng, &bits);
            for (const auto& [q, cbit] : tail_) {
                replay_.writeBit(cbit, bits[size_t(q)] == '1' ? 1 : 0, rng,
                                 clbits);
            }
        }
        return clbits;
    }

  private:
    /** Keep a replayed chain at its leaf while the leaf budget lasts. */
    void
    keepChain(Scratch& scratch, int leaf) const
    {
        OutcomeTrie& trie = scratch.replay.trie;
        if (leaf < 0 || tail_.empty() || trie.slot(leaf) >= 0) return;
        const mps::MpsState& chain = *scratch.replay.state;
        const size_t bytes = chain.memoryBytes();
        if (scratch.chain_bytes + bytes > OutcomeTrie::kMaxLeafBytes) return;
        trie.setSlot(leaf, int(scratch.chains.size()));
        scratch.chains.push_back(chain);
        scratch.chain_bytes += bytes;
    }

    SuffixReplay<MpsSteps> replay_;

    /** (qubit, clbit) of each peeled terminal measurement, in order. */
    std::vector<std::pair<int, int>> tail_;
};

} // namespace

std::shared_ptr<const PreparedCircuit>
detail::prepareMps(const QuantumCircuit& circuit, const SimOptions& options,
                   const CircuitAnalysis& analysis)
{
    return std::make_shared<MpsPrepared>(circuit, options, analysis);
}

} // namespace backend
} // namespace qa
