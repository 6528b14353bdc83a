#include "sim/exact.hpp"

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/density.hpp"
#include "sim/statevector.hpp"

namespace qa
{

namespace
{

/**
 * The branching walk, for State = Statevector (noise always null) or
 * DensityState. Branches are popped last-in first-out and equal records
 * are summed in that order, so the push order below is part of the
 * output's bits: outcome 0 before outcome 1, and a flipped readout
 * record before the true one.
 */
template <class State>
Distribution
branchingWalk(const QuantumCircuit& circuit, const NoiseModel* noise)
{
    struct Branch
    {
        State state;
        std::string clbits;
        double prob;
        size_t pc;
    };

    Distribution dist;
    std::vector<Branch> stack;
    stack.push_back(Branch{State(circuit.numQubits()),
                           std::string(size_t(std::max(
                               circuit.numClbits(), 0)), '0'),
                           1.0, 0});

    const auto& instrs = circuit.instructions();
    while (!stack.empty()) {
        Branch branch = std::move(stack.back());
        stack.pop_back();

        bool alive = true;
        while (branch.pc < instrs.size() && alive) {
            const Instruction& instr = instrs[branch.pc];
            ++branch.pc;
            switch (instr.type) {
              case OpType::kGate:
                if constexpr (std::is_same_v<State, DensityState>) {
                    branch.state.applyGate(instr, noise);
                } else {
                    branch.state.applyGate(instr);
                }
                break;
              case OpType::kBarrier:
                break;
              case OpType::kMeasure:
              case OpType::kReset: {
                const int q = instr.qubits[0];
                const double p1 = branch.state.probabilityOne(q);
                for (int outcome : {0, 1}) {
                    const double p = outcome ? p1 : 1.0 - p1;
                    if (p < 1e-12) continue;
                    Branch next = branch;
                    next.prob *= p;
                    next.state.collapse(q, outcome);
                    if (instr.type == OpType::kReset) {
                        if (outcome == 1) next.state.applyX(q);
                        stack.push_back(std::move(next));
                        continue;
                    }
                    // Fold asymmetric readout error into the classical
                    // record: the collapse is on the true outcome, only
                    // the recorded bit may flip.
                    const double flip =
                        noise == nullptr ? 0.0
                        : outcome        ? noise->readout_p10
                                         : noise->readout_p01;
                    if (flip > 0.0) {
                        Branch flipped = next;
                        flipped.prob *= flip;
                        flipped.clbits[instr.cbit] = outcome ? '0' : '1';
                        stack.push_back(std::move(flipped));
                        next.prob *= 1.0 - flip;
                    }
                    next.clbits[instr.cbit] = outcome ? '1' : '0';
                    stack.push_back(std::move(next));
                }
                alive = false;
                break;
              }
            }
        }
        if (alive) {
            dist.probs[branch.clbits] += branch.prob;
        }
    }
    return dist;
}

} // namespace

Distribution
exactDistribution(const QuantumCircuit& circuit, const NoiseModel* noise)
{
    const NoiseModel* active = activeNoise(noise);
    return active == nullptr ? branchingWalk<Statevector>(circuit, nullptr)
                             : branchingWalk<DensityState>(circuit, active);
}

Distribution
exactDistributionDM(const QuantumCircuit& circuit, const NoiseModel* noise)
{
    return branchingWalk<DensityState>(circuit, activeNoise(noise));
}

} // namespace qa
