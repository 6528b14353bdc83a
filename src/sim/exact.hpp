/**
 * @file
 * The exact engine: outcome distributions as probabilities, not samples.
 *
 * One branching walk serves every exact caller. It runs the circuit on
 * a state, and at each measurement or reset it pushes one branch per
 * outcome with nonzero probability (a measurement under readout error
 * also pushes the flipped record). Gates go through the state's gate
 * step; on the density matrix that is the exact gate step
 * (DensityState::applyGate), which applies each gate's Kraus channels
 * exactly. The walk runs on a pure state (Statevector) when no noise is
 * active and on a density matrix (DensityState) when it is;
 * exactDistribution makes that choice, in this one place.
 */
#ifndef QA_SIM_EXACT_HPP
#define QA_SIM_EXACT_HPP

#include "circuit/circuit.hpp"
#include "sim/noise.hpp"
#include "sim/result.hpp"

namespace qa
{

/**
 * Exact outcome distribution: branches on every measurement and reset,
 * so mid-circuit measurements are handled exactly. Walks a pure state
 * when `noise` is null or disabled, and a density matrix (at most 12
 * qubits) with the model's gate channels and readout error applied
 * exactly otherwise. Intended for circuits with a modest number of
 * measurements.
 */
Distribution exactDistribution(const QuantumCircuit& circuit,
                               const NoiseModel* noise = nullptr);

/** The same walk on the density matrix, whether or not noise is active. */
Distribution exactDistributionDM(const QuantumCircuit& circuit,
                                 const NoiseModel* noise = nullptr);

} // namespace qa

#endif // QA_SIM_EXACT_HPP
