/**
 * @file
 * The dense statevector engine behind the Backend interface. Prepare
 * evolves the deterministic prefix once (sim/engine.hpp's ShotPlan);
 * each shot then samples the cached state directly (terminal-sampling
 * fast path) or runs the shared suffix replay (backend/suffix_replay.hpp)
 * with Kraus trajectory noise on its gates and `uniform() < P(1)` for a
 * measurement.
 *
 * The router's analysis decides what runs: its shot plan places the
 * split and picks terminal sampling (of the profile's terminal
 * measurements), and its fused stream replaces the raw gates unless
 * Kraus noise is attached. Without Kraus noise the prefix ends at the
 * first measurement or reset, which flushes every fusion group, so the
 * whole-circuit fused stream splits there (CircuitAnalysis::fused_split)
 * into exactly the fused prefix and suffix. With Kraus noise the whole stream stays raw, because fusion
 * changes gate arity and so which channel list a gate draws.
 */
#include "backend/backend.hpp"

#include "backend/suffix_replay.hpp"
#include "sim/engine.hpp"

namespace qa
{
namespace backend
{

namespace
{

/** The statevector's replay steps (see backend/suffix_replay.hpp). */
struct StatevectorSteps
{
    using State = Statevector;
    using Gate = Instruction;

    const NoiseModel* noise; ///< active model, or null

    template <typename Emit>
    void
    resolve(const Instruction& instr, Emit&& emit) const
    {
        emit(instr);
    }

    void
    apply(State& state, const Gate& gate) const
    {
        state.applyGate(gate);
    }

    bool
    noisy(const Gate& gate) const
    {
        return noise != nullptr && !noise->channelsFor(gate).empty();
    }

    /** The gate's channels on each qubit it touches. */
    void
    applyNoise(State& state, const Gate& gate, Rng& rng) const
    {
        for (int q : gate.qubits) {
            for (const KrausChannel& channel : noise->channelsFor(gate)) {
                state.applyKrausTrajectory(channel, q, rng);
            }
        }
    }

    int
    measure(State& state, int q, Rng& rng, OutcomeDraw* record) const
    {
        const OutcomeDraw draw{OutcomeDraw::Kind::kOneBelow, 0,
                               state.probabilityOne(q)};
        const int outcome = draw.outcome(rng);
        state.collapse(q, outcome);
        if (record != nullptr) *record = draw;
        return outcome;
    }
};

/**
 * The replay over the stream shots execute: the router's fused stream
 * unless Kraus noise is attached, and no suffix under terminal sampling.
 */
SuffixReplay<StatevectorSteps>
buildReplay(const QuantumCircuit& circuit, const NoiseModel* noise,
            const CircuitAnalysis& analysis)
{
    const ShotPlan& plan = analysis.plan;
    const bool fuse = analysis.fused.has_value() && !analysis.noise.kraus;
    const std::vector<Instruction>& stream =
        fuse ? analysis.fused->instructions : circuit.instructions();
    const size_t split = fuse ? analysis.fused_split : plan.split;
    return SuffixReplay<StatevectorSteps>(
        StatevectorSteps{noise}, Statevector(circuit.numQubits()), stream,
        split, plan.terminal_sampling ? split : stream.size(),
        circuit.numClbits(), noise);
}

class StatevectorPrepared final
    : public detail::PreparedBase<StatevectorPrepared>
{
  public:
    /** Terminal-sampling runs never touch it. */
    using Scratch = SuffixReplay<StatevectorSteps>::Scratch;

    StatevectorPrepared(const QuantumCircuit& circuit,
                        const SimOptions& options,
                        const CircuitAnalysis& analysis)
        : noise_(activeNoise(options.noise)),
          replay_(buildReplay(circuit, noise_, analysis))
    {
        if (analysis.plan.terminal_sampling) {
            table_ = std::make_unique<SampleTable>(replay_.prefix());
            measures_ = analysis.profile.terminal_measures;
        }
    }

    /** One shot: sample the cached state, or run the suffix replay. */
    std::string
    runShot(Scratch& scratch, Rng& rng) const
    {
        if (table_ != nullptr) {
            return sampleTerminalShot(*table_, replay_.prefix().numQubits(),
                                      measures_, noise_, replay_.clbits0(),
                                      rng);
        }
        std::string clbits = replay_.clbits0();
        replay_.run(scratch, rng, clbits, [](int) { return true; });
        return clbits;
    }

  private:
    const NoiseModel* noise_;
    SuffixReplay<StatevectorSteps> replay_;
    std::unique_ptr<SampleTable> table_; ///< set under terminal sampling
    std::vector<std::pair<int, int>> measures_; ///< what table_ samples
};

} // namespace

std::shared_ptr<const PreparedCircuit>
detail::prepareStatevector(const QuantumCircuit& circuit,
                           const SimOptions& options,
                           const CircuitAnalysis& analysis)
{
    return std::make_shared<StatevectorPrepared>(circuit, options,
                                                 analysis);
}

} // namespace backend
} // namespace qa
