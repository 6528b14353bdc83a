/**
 * @file
 * Per-worker memo of a replaying shot's stochastic outcomes (DESIGN.md
 * Sec. 7, "Outcome-trie replay").
 *
 * When no gate of a suffix draws from the stream, a shot's state after
 * its d-th measurement or reset depends only on the outcomes drawn so
 * far. A trie node stands for that point on one outcome path: it
 * records how the backend turned the stream into an outcome there (an
 * OutcomeDraw) and links a child per outcome. A shot walks the trie,
 * making exactly the draws and comparisons the replay would make; only
 * when it falls off does the shared suffix replay
 * (backend/suffix_replay.hpp) restore the stream and replay the suffix,
 * recording the path it takes. A hit therefore produces the replay's
 * bitstring by construction.
 *
 * A trie belongs to one ShotSampler, so it is never shared between
 * threads. Two constants bound its memory. Once kMaxNodes is reached
 * the sampler stops recording, and later misses simply replay; past
 * kMaxLeafBytes a completed path keeps no leaf state, so a shot that
 * needs it replays too.
 */
#ifndef QA_BACKEND_OUTCOME_TRIE_HPP
#define QA_BACKEND_OUTCOME_TRIE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qa
{
namespace backend
{

/**
 * How one backend measurement turns the stream into an outcome. The
 * replay draws through outcome() too, so a walk and a replay compare the
 * same draw against the same probability.
 */
struct OutcomeDraw
{
    enum class Kind : uint8_t
    {
        kOneBelow,  ///< uniform() < p ? 1 : 0 (statevector, p = P(1))
        kZeroBelow, ///< uniform() < p ? 0 : 1 (MPS, p = P(0))
        kFairCoin,  ///< bernoulli(0.5) (a random stabilizer measurement)
        kFixed,     ///< `fixed`, no draw (a deterministic one)
    };

    Kind kind = Kind::kFixed;
    uint8_t fixed = 0;
    double p = 0.0;

    int
    outcome(Rng& rng) const
    {
        switch (kind) {
          case Kind::kOneBelow:
            return rng.uniform() < p ? 1 : 0;
          case Kind::kZeroBelow:
            return rng.uniform() < p ? 0 : 1;
          case Kind::kFairCoin:
            return rng.bernoulli(0.5) ? 1 : 0;
          case Kind::kFixed:
            break;
        }
        return fixed;
    }

    bool
    operator==(const OutcomeDraw& other) const
    {
        return kind == other.kind && fixed == other.fixed && p == other.p;
    }
};

/** Outcome paths of one sampler's shots through a fixed suffix. */
class OutcomeTrie
{
  public:
    /** Node cap (leaves included): 32 bytes each, 128 KiB at most. */
    static constexpr size_t kMaxNodes = size_t(1) << 12;

    /**
     * Byte budget for the state a sampler keeps at its leaves (the MPS
     * backend's post-suffix chains); a leaf past it keeps none.
     */
    static constexpr size_t kMaxLeafBytes = size_t(2) << 20;

    /**
     * Walk one shot from the root: at each node draw its outcome, call
     * on_outcome(d, outcome) for the suffix's d-th stochastic op (the
     * replay applies readout error and writes the clbit there), and
     * follow the child. Returns the leaf reached, or -1 when the path
     * falls off the trie; the stream and clbits are then part-consumed
     * and the caller restores both before replaying.
     */
    template <typename OnOutcome>
    int
    walk(Rng& rng, OnOutcome&& on_outcome) const
    {
        if (nodes_.empty()) return -1;
        int node = 0;
        for (size_t d = 0; !nodes_[size_t(node)].leaf; ++d) {
            const Node& at = nodes_[size_t(node)];
            const int outcome = at.draw.outcome(rng);
            on_outcome(d, outcome);
            node = at.child[outcome];
            if (node < 0) return -1;
        }
        return node;
    }

    /** Backend payload index of a leaf (MPS: its cached chain), or -1. */
    int slot(int leaf) const { return nodes_[size_t(leaf)].slot; }
    void setSlot(int leaf, int slot) { nodes_[size_t(leaf)].slot = slot; }

    /**
     * Records the path one replay takes, creating the nodes it lacks.
     * A null trie, or a full one, records nothing.
     */
    class Recorder
    {
      public:
        explicit Recorder(OutcomeTrie* trie) : trie_(trie) {}

        /** False once nothing more will be recorded. */
        bool recording() const { return trie_ != nullptr; }

        /** The replay drew `outcome` through `draw` at its next op. */
        void
        record(const OutcomeDraw& draw, int outcome)
        {
            if (trie_ == nullptr) return;
            parent_ = advance(false, draw);
            branch_ = outcome;
        }

        /** The replay finished: the leaf of its path, or -1. */
        int
        finish()
        {
            return trie_ == nullptr ? -1 : advance(true, OutcomeDraw{});
        }

      private:
        /** Follow or create the node after (parent_, branch_). */
        int
        advance(bool leaf, const OutcomeDraw& draw)
        {
            std::vector<Node>& nodes = trie_->nodes_;
            int node = parent_ < 0 ? (nodes.empty() ? -1 : 0)
                                   : nodes[size_t(parent_)].child[branch_];
            if (node < 0) {
                if (nodes.size() >= kMaxNodes) {
                    trie_ = nullptr;
                    return -1;
                }
                node = int(nodes.size());
                Node fresh;
                fresh.draw = draw;
                fresh.leaf = leaf;
                nodes.push_back(fresh);
                if (parent_ >= 0) {
                    nodes[size_t(parent_)].child[branch_] = node;
                }
            } else {
                // The same outcome path reaches the same state.
                QA_ASSERT(nodes[size_t(node)].leaf == leaf &&
                              (leaf || nodes[size_t(node)].draw == draw),
                          "outcome trie replay diverged from its record");
            }
            return node;
        }

        OutcomeTrie* trie_;
        int parent_ = -1; ///< node of the last recorded op; -1 at the root
        int branch_ = 0;  ///< outcome drawn there
    };

  private:
    struct Node
    {
        OutcomeDraw draw;   ///< unused at a leaf
        int32_t child[2] = {-1, -1};
        int32_t slot = -1;  ///< leaf payload, see slot()
        bool leaf = false;  ///< the suffix ends here
    };

    std::vector<Node> nodes_; ///< nodes_[0] is the root
};

} // namespace backend
} // namespace qa

#endif // QA_BACKEND_OUTCOME_TRIE_HPP
