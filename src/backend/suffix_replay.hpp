/**
 * @file
 * The replay protocol every replaying backend (statevector, stabilizer,
 * MPS) shares (DESIGN.md Sec. 7, "Outcome-trie replay").
 *
 * A SuffixReplay holds the prefix state evolved once, the post-split
 * suffix and the shot's classical side: the clbit template, the clbit
 * of each suffix measurement, and readout error. A shot walks its
 * worker's outcome trie (backend/outcome_trie.hpp) and, when it falls
 * off, restores its stream and replays the suffix onto the worker's
 * scratch state, recording the path it takes. A backend instantiates
 * it with a Steps type that supplies only what differs: `State`
 * (copyable, with applyX), `Gate`, `resolve(instr, emit)` (emit each
 * Gate one gate instruction becomes), `apply(state, gate)`,
 * `noisy(gate)` and `applyNoise(state, gate, rng)` for its trajectory
 * noise, and `measure(state, q, rng, record)`, which draws and collapses
 * one measurement and describes the draw in *record unless it is null.
 */
#ifndef QA_BACKEND_SUFFIX_REPLAY_HPP
#define QA_BACKEND_SUFFIX_REPLAY_HPP

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "backend/outcome_trie.hpp"
#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "sim/engine.hpp"
#include "sim/noise.hpp"

namespace qa
{
namespace backend
{

/** How one shot's suffix ran. */
struct SuffixRun
{
    int leaf = -1;         ///< trie leaf of the shot's path, or -1
    bool replayed = false; ///< the worker's scratch state holds the result
};

/** One prepared circuit's prefix, suffix and classical side. */
template <typename Steps>
class SuffixReplay
{
  public:
    using State = typename Steps::State;
    using Gate = typename Steps::Gate;

    /** One worker's mutable side: its replay state and outcome trie. */
    struct Scratch
    {
        std::optional<State> state; ///< allocated by the first replay
        OutcomeTrie trie;
    };

    /**
     * Evolve `prefix` through the gates of stream[0, split) and keep
     * stream[split, end) as the suffix. `noise` contributes its readout
     * error (null or disabled: none).
     */
    SuffixReplay(Steps steps, State prefix,
                 const std::vector<Instruction>& stream, size_t split,
                 size_t end, int num_clbits, const NoiseModel* noise)
        : steps_(std::move(steps)), prefix_(std::move(prefix)),
          clbits0_(size_t(std::max(num_clbits, 0)), '0')
    {
        if (noise != nullptr && noise->enabled()) {
            readout_.readout_p01 = noise->readout_p01;
            readout_.readout_p10 = noise->readout_p10;
        }
        for (size_t i = 0; i < end; ++i) {
            const Instruction& instr = stream[i];
            if (instr.type == OpType::kGate) {
                steps_.resolve(instr, [&](auto&& gate) {
                    if (i < split) {
                        steps_.apply(prefix_, gate);
                        return;
                    }
                    Op op;
                    op.kind = steps_.noisy(gate) ? Op::Kind::kNoisyGate
                                                 : Op::Kind::kGate;
                    memoizes_ &= op.kind == Op::Kind::kGate;
                    op.gate = std::forward<decltype(gate)>(gate);
                    suffix_.push_back(std::move(op));
                });
            } else if (instr.type != OpType::kBarrier) {
                QA_ASSERT(i >= split, "a measure or reset in the prefix");
                const bool measure = instr.type == OpType::kMeasure;
                Op op;
                op.kind = measure ? Op::Kind::kMeasure : Op::Kind::kReset;
                op.qubit = instr.qubits[0];
                op.cbit = measure ? instr.cbit : -1;
                stop_cbits_.push_back(op.cbit);
                suffix_.push_back(std::move(op));
            }
        }
    }

    const State& prefix() const { return prefix_; }
    const std::string& clbits0() const { return clbits0_; }
    bool empty() const { return suffix_.empty(); }

    /** Write a measured outcome, readout error applied (cbit < 0: none). */
    void
    writeBit(int cbit, int outcome, Rng& rng, std::string& clbits) const
    {
        if (cbit < 0) return;
        outcome = applyReadoutError(outcome, readout_, rng);
        clbits[size_t(cbit)] = outcome ? '1' : '0';
    }

    /**
     * One shot's suffix into `clbits` (a copy of clbits0()). When no
     * suffix gate draws, walk the worker's trie first; a leaf that
     * `keep` accepts answers the shot. Otherwise restore the stream and
     * clbits and replay onto the worker's scratch state.
     */
    template <typename Keep>
    SuffixRun
    run(Scratch& scratch, Rng& rng, std::string& clbits, Keep&& keep) const
    {
        OutcomeTrie* trie = memoizes_ ? &scratch.trie : nullptr;
        if (trie != nullptr) {
            const Rng start = rng;
            const int leaf = trie->walk(rng, [&](size_t d, int outcome) {
                writeBit(stop_cbits_[d], outcome, rng, clbits);
            });
            if (leaf >= 0 && keep(leaf)) return {leaf, false};
            rng = start;
            clbits = clbits0_;
        }

        OutcomeTrie::Recorder recorder(trie);
        scratch.state = prefix_;
        State& state = *scratch.state;
        for (const Op& op : suffix_) {
            switch (op.kind) {
              case Op::Kind::kGate:
                steps_.apply(state, op.gate);
                break;
              case Op::Kind::kNoisyGate:
                steps_.apply(state, op.gate);
                steps_.applyNoise(state, op.gate, rng);
                break;
              case Op::Kind::kMeasure:
              case Op::Kind::kReset: {
                OutcomeDraw draw;
                const int outcome = steps_.measure(
                    state, op.qubit, rng,
                    recorder.recording() ? &draw : nullptr);
                recorder.record(draw, outcome);
                if (op.kind == Op::Kind::kMeasure) {
                    writeBit(op.cbit, outcome, rng, clbits);
                } else if (outcome == 1) {
                    state.applyX(op.qubit);
                }
                break;
              }
            }
        }
        return {recorder.finish(), true};
    }

  private:
    struct Op
    {
        enum class Kind : uint8_t
        {
            kGate,
            kNoisyGate, ///< trajectory noise follows: draws
            kMeasure,
            kReset,
        };

        Kind kind = Kind::kGate;
        int qubit = -1; ///< measured or reset qubit
        int cbit = -1;  ///< destination bit (measures)
        Gate gate;
    };

    Steps steps_;
    State prefix_;
    std::string clbits0_;
    NoiseModel readout_; ///< readout error only; no channels
    std::vector<Op> suffix_;

    /** Clbit of each suffix measurement in order, -1 for a reset. */
    std::vector<int> stop_cbits_;

    /** The trie's gate: no suffix gate draws from the stream. */
    bool memoizes_ = true;
};

} // namespace backend
} // namespace qa

#endif // QA_BACKEND_SUFFIX_REPLAY_HPP
