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
 * outcome is random and a fixed outcome when it is deterministic. Gates
 * are applied by name when the tableau knows them and via Clifford
 * recognition (stab/clifford.hpp) otherwise, so rz(pi/2) or a Clifford
 * `unitary` instruction routes here too.
 *
 * Noise: Pauli-mixture Kraus channels are sampled per trajectory as
 * sign-only tableau updates (probabilities are state-independent, which
 * is exactly what recognizePauliChannel certifies); classical readout
 * error is applied by the shared replay. Non-Pauli channels and
 * non-Clifford gates are capability violations and throw kBadRequest.
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

/** A Clifford gate, applied by name or through its recognized action. */
struct StabilizerGate
{
    Instruction instr;
    std::optional<CliffordAction> action; ///< unset: a named gate
};

/** The tableau's replay steps (see backend/suffix_replay.hpp). */
class StabilizerSteps
{
  public:
    using State = StabilizerTableau;
    using Gate = StabilizerGate;

    explicit StabilizerSteps(const NoiseModel* noise)
    {
        if (noise == nullptr) return;
        adoptChannels(noise->noise_1q, &chan1_);
        adoptChannels(noise->noise_2q, &chan2_);
    }

    /** Rejects a gate outside the Clifford capability set. */
    template <typename Emit>
    void
    resolve(const Instruction& instr, Emit&& emit) const
    {
        Gate gate{instr, std::nullopt};
        if (!isNamedCliffordGate(instr)) {
            gate.action = recognizeClifford(instr);
            QA_REQUIRE_CODE(gate.action.has_value(), ErrorCode::kBadRequest,
                            "stabilizer backend cannot run non-Clifford "
                            "gate '" +
                                instr.name + "'");
        }
        emit(std::move(gate));
    }

    void
    apply(State& tableau, const Gate& gate) const
    {
        if (gate.action.has_value()) {
            tableau.applyClifford(*gate.action, gate.instr.qubits);
        } else {
            tableau.applyGate(gate.instr);
        }
    }

    bool noisy(const Gate& gate) const { return !channels(gate).empty(); }

    /** Sample one Pauli per channel per touched qubit (engine order). */
    void
    applyNoise(State& tableau, const Gate& gate, Rng& rng) const
    {
        for (int q : gate.instr.qubits) {
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
        return gate.instr.arity() == 1 ? chan1_ : chan2_;
    }

    static void
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
        : replay_(StabilizerSteps(activeNoise(options.noise)),
                  StabilizerTableau(std::max(circuit.numQubits(), 1)),
                  circuit.instructions(), analysis.plan.split,
                  circuit.instructions().size(), circuit.numClbits(),
                  options.noise)
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
