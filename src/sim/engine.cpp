#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sim/result.hpp"

namespace qa
{

namespace
{

/** True if the noise model attaches a Kraus channel to this gate. */
bool
gateIsNoisy(const Instruction& instr, const NoiseModel& noise)
{
    const auto& channels =
        instr.arity() == 1 ? noise.noise_1q : noise.noise_2q;
    return !channels.empty();
}

} // namespace

int
applyReadoutError(int outcome, const NoiseModel& noise, Rng& rng)
{
    if (outcome == 0 && noise.readout_p01 > 0.0 &&
        rng.bernoulli(noise.readout_p01)) {
        return 1;
    }
    if (outcome == 1 && noise.readout_p10 > 0.0 &&
        rng.bernoulli(noise.readout_p10)) {
        return 0;
    }
    return outcome;
}

int
resolveShotThreads(int requested, int shots)
{
    int n = requested;
    if (n <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        n = hw == 0 ? 1 : int(hw);
    }
    return std::max(1, std::min(n, shots));
}

ShotPlan
analyzeShotPlan(const QuantumCircuit& circuit, const NoiseModel* noise)
{
    const bool enabled = noise != nullptr && noise->enabled();
    ShotPlan plan;
    plan.kraus_noise = enabled && (!noise->noise_1q.empty() ||
                                   !noise->noise_2q.empty());
    plan.readout_noise = enabled && (noise->readout_p01 > 0.0 ||
                                     noise->readout_p10 > 0.0);

    const auto& instrs = circuit.instructions();
    plan.split = instrs.size();
    for (size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& instr = instrs[i];
        const bool stochastic =
            instr.type == OpType::kMeasure ||
            instr.type == OpType::kReset ||
            (instr.type == OpType::kGate && enabled &&
             gateIsNoisy(instr, *noise));
        if (stochastic) {
            plan.split = i;
            break;
        }
    }

    plan.terminal_sampling = true;
    for (size_t i = plan.split; i < instrs.size(); ++i) {
        const Instruction& instr = instrs[i];
        if (instr.type == OpType::kBarrier) continue;
        if (instr.type != OpType::kMeasure) {
            plan.terminal_sampling = false;
            plan.terminal_measures.clear();
            break;
        }
        plan.terminal_measures.emplace_back(instr.qubits[0], instr.cbit);
    }
    return plan;
}

SampleTable::SampleTable(const Statevector& state)
{
    const CVector& amps = state.amplitudes();
    cumulative_.resize(amps.dim());
    double acc = 0.0;
    for (uint64_t i = 0; i < amps.dim(); ++i) {
        acc += std::norm(amps[i]);
        cumulative_[i] = acc;
    }
    QA_REQUIRE(acc > 1e-14, "sample table over a zero-mass state");
}

uint64_t
SampleTable::sample(Rng& rng) const
{
    const double draw = rng.uniform() * cumulative_.back();
    const auto it =
        std::upper_bound(cumulative_.begin(), cumulative_.end(), draw);
    if (it == cumulative_.end()) return uint64_t(cumulative_.size()) - 1;
    return uint64_t(it - cumulative_.begin());
}

} // namespace qa
