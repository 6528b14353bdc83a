/**
 * @file
 * Stabilizer backend: Clifford circuits on the Aaronson-Gottesman
 * tableau (stab/tableau.hpp), polynomial in the qubit count where the
 * dense engines are exponential.
 *
 * Preparation evolves one shared tableau through the prefix the
 * router's shot plan names; each shot runs the shared suffix replay
 * (backend/suffix_replay.hpp), whose trie hit needs no tableau copy at
 * all. A replayed measurement is the tableau's fair coin when its
 * outcome is random and a fixed outcome when it is deterministic. Every
 * gate is resolved once to its action from the one Clifford classifier
 * (stab/clifford.hpp) and applied through the tableau's one update, so
 * rz(pi/2) or a Clifford `unitary` instruction runs here exactly like
 * h or cx.
 *
 * Noise: Pauli-mixture Kraus channels are sampled per trajectory as
 * sign-only tableau updates (probabilities are state-independent, which
 * is exactly what recognizePauliChannel certifies); the router's
 * analysis recognized them once (NoiseProfile::pauli_1q/pauli_2q), and
 * prepare adopts those lists. Classical readout error is applied by the
 * shared replay. Non-Pauli channels and non-Clifford gates are
 * capability violations and throw kBadRequest.
 */
#include "backend/backend.hpp"

#include <algorithm>

#include "backend/analyzer.hpp"
#include "backend/suffix_replay.hpp"
#include "common/error.hpp"
#include "stab/clifford.hpp"
#include "stab/tableau.hpp"

namespace qa
{
namespace backend
{

namespace
{

/** A Clifford gate: its qubits and its action. */
struct StabilizerGate
{
    std::vector<int> qubits;
    CliffordAction action;
};

/** The tableau's replay steps (see backend/suffix_replay.hpp). */
class StabilizerSteps
{
  public:
    using State = StabilizerTableau;
    using Gate = StabilizerGate;

    /** Adopts the profile's recognized channels; rejects non-Pauli ones. */
    explicit StabilizerSteps(const NoiseProfile& noise)
        : chan1_(noise.pauli_1q), chan2_(noise.pauli_2q)
    {
        QA_REQUIRE_CODE(!noise.kraus || noise.pauli_only,
                        ErrorCode::kBadRequest,
                        "stabilizer backend cannot run non-Pauli Kraus "
                        "channels");
    }

    /** Rejects a gate outside the Clifford capability set. */
    template <typename Emit>
    void
    resolve(const Instruction& instr, Emit&& emit) const
    {
        const std::optional<CliffordAction> action = cliffordAction(instr);
        QA_REQUIRE_CODE(action.has_value(), ErrorCode::kBadRequest,
                        "stabilizer backend cannot run non-Clifford "
                        "gate '" +
                            instr.name + "'");
        emit(Gate{instr.qubits, *action});
    }

    void
    apply(State& tableau, const Gate& gate) const
    {
        tableau.applyClifford(gate.action, gate.qubits);
    }

    bool noisy(const Gate& gate) const { return !channels(gate).empty(); }

    /** Sample one Pauli per channel per touched qubit (engine order). */
    void
    applyNoise(State& tableau, const Gate& gate, Rng& rng) const
    {
        for (int q : gate.qubits) {
            for (const PauliChannel& channel : channels(gate)) {
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

    /** A random outcome is the tableau's bernoulli(0.5) draw. */
    int
    measure(State& tableau, int q, Rng& rng, OutcomeDraw* record) const
    {
        const bool fixed = record != nullptr && tableau.isDeterministic(q);
        const int outcome = tableau.measure(q, rng);
        using Kind = OutcomeDraw::Kind;
        if (record != nullptr) {
            *record = fixed ? OutcomeDraw{Kind::kFixed, uint8_t(outcome), 0.0}
                            : OutcomeDraw{Kind::kFairCoin, 0, 0.0};
        }
        return outcome;
    }

  private:
    const std::vector<PauliChannel>&
    channels(const Gate& gate) const
    {
        return gate.qubits.size() == 1 ? chan1_ : chan2_;
    }

    std::vector<PauliChannel> chan1_;
    std::vector<PauliChannel> chan2_;
};

class StabilizerPrepared final
    : public detail::PreparedBase<StabilizerPrepared>
{
  public:
    using Scratch = SuffixReplay<StabilizerSteps>::Scratch;

    StabilizerPrepared(const QuantumCircuit& circuit,
                       const SimOptions& options,
                       const CircuitAnalysis& analysis)
        : replay_(StabilizerSteps(analysis.noise),
                  StabilizerTableau(std::max(circuit.numQubits(), 1)),
                  circuit.instructions(), analysis.plan.split,
                  circuit.instructions().size(), circuit.numClbits(),
                  activeNoise(options.noise))
    {}

    std::string
    runShot(Scratch& scratch, Rng& rng) const
    {
        std::string clbits = replay_.clbits0();
        replay_.run(scratch, rng, clbits, [](int) { return true; });
        return clbits;
    }

  private:
    SuffixReplay<StabilizerSteps> replay_;
};

} // namespace

std::shared_ptr<const PreparedCircuit>
detail::prepareStabilizer(const QuantumCircuit& circuit,
                          const SimOptions& options,
                          const CircuitAnalysis& analysis)
{
    return std::make_shared<StabilizerPrepared>(circuit, options, analysis);
}

} // namespace backend
} // namespace qa
