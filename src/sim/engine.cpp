#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "sim/result.hpp"

namespace qa
{

namespace
{

/** |amplitude|^2 of each basis state, in index order. */
std::vector<double>
basisWeights(const Statevector& state)
{
    const CVector& amps = state.amplitudes();
    std::vector<double> weights(amps.dim());
    for (uint64_t i = 0; i < amps.dim(); ++i) {
        weights[i] = std::norm(amps[i]);
    }
    return weights;
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
    const auto& instrs = circuit.instructions();
    const auto stochastic = [noise](const Instruction& instr) {
        return instr.type == OpType::kMeasure ||
               instr.type == OpType::kReset ||
               (instr.type == OpType::kGate && noise != nullptr &&
                !noise->channelsFor(instr).empty());
    };
    const auto first =
        std::find_if(instrs.begin(), instrs.end(), stochastic);
    ShotPlan plan;
    plan.split = size_t(first - instrs.begin());
    plan.terminal_sampling =
        std::all_of(first, instrs.end(), [](const Instruction& instr) {
            return instr.type == OpType::kMeasure ||
                   instr.type == OpType::kBarrier;
        });
    return plan;
}

SampleTable::SampleTable(const Statevector& state)
    : SampleTable(basisWeights(state))
{}

SampleTable::SampleTable(std::vector<double> weights)
    : cumulative_(std::move(weights))
{
    std::partial_sum(cumulative_.begin(), cumulative_.end(),
                     cumulative_.begin());
    QA_REQUIRE(!cumulative_.empty() && cumulative_.back() > 1e-14,
               "sample table over a zero-mass state");
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

std::string
sampleTerminalShot(const SampleTable& table, int num_qubits,
                   const std::vector<std::pair<int, int>>& measures,
                   const NoiseModel* noise, std::string clbits, Rng& rng)
{
    const uint64_t index = table.sample(rng);
    for (const auto& [q, c] : measures) {
        int outcome = int((index >> (num_qubits - 1 - q)) & 1);
        if (noise != nullptr) {
            outcome = applyReadoutError(outcome, *noise, rng);
        }
        clbits[size_t(c)] = outcome ? '1' : '0';
    }
    return clbits;
}

} // namespace qa
