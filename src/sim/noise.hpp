/**
 * @file
 * Gate-level noise model standing in for the paper's `ibmq-melbourne`
 * hardware runs (Sec. IX-B).
 *
 * The substitution rationale (see DESIGN.md): the paper's device results
 * only require that (a) noise produces a baseline assertion-error rate,
 * (b) a program bug raises that rate measurably, and (c) post-selecting
 * on assertion success improves the success rate, with cheaper assertion
 * circuits preserving more fidelity. Any gate-level stochastic channel
 * set with realistic magnitudes reproduces those effects.
 */
#ifndef QA_SIM_NOISE_HPP
#define QA_SIM_NOISE_HPP

#include <vector>

#include "circuit/instruction.hpp"
#include "common/hash.hpp"
#include "sim/kraus.hpp"

namespace qa
{

/** Channels applied around gates plus classical readout error. */
struct NoiseModel
{
    /** Channels applied to each qubit touched by a single-qubit gate. */
    std::vector<KrausChannel> noise_1q;

    /** Channels applied to each qubit touched by a multi-qubit gate. */
    std::vector<KrausChannel> noise_2q;

    /** P(read 1 | qubit is 0). */
    double readout_p01 = 0.0;

    /** P(read 0 | qubit is 1); asymmetric and larger on real devices. */
    double readout_p10 = 0.0;

    /**
     * The channel list a gate draws, once per qubit it touches:
     * noise_1q for a one-qubit gate, noise_2q for any wider one. Every
     * engine that applies or plans gate noise asks this.
     */
    const std::vector<KrausChannel>&
    channelsFor(const Instruction& instr) const
    {
        return instr.arity() == 1 ? noise_1q : noise_2q;
    }

    /** True if any channel or readout error is configured. */
    bool
    enabled() const
    {
        return !noise_1q.empty() || !noise_2q.empty() ||
               readout_p01 > 0.0 || readout_p10 > 0.0;
    }

    /**
     * Validate-on-use check run by the execution engine before the
     * first shot: readout probabilities must lie in [0, 1] and every
     * Kraus channel must be trace preserving. Throws UserError
     * (ErrorCode::kInvalidNoiseModel) naming the offending field or
     * channel. Catches models assembled from external calibration data
     * (KrausChannel::raw) or mutated after construction.
     */
    void validate() const;

    /**
     * Structural fingerprint over every Kraus operator and the readout
     * probabilities: models hash equal exactly when they apply the same
     * channels. Keys the serve layer's cross-job result cache alongside
     * the circuit hash (circuit/hash.hpp).
     */
    Hash128 fingerprint() const;

    /**
     * Calibration-style model with magnitudes typical of the 15-qubit
     * IBM Melbourne generation: ~0.1% 1q depolarizing, ~3% 2q
     * depolarizing, ~1.5%/3.5% asymmetric readout error, light amplitude
     * damping.
     */
    static NoiseModel ibmqMelbourneLike();

    /** Uniform depolarizing-only model (handy for sweeps). */
    static NoiseModel depolarizing(double p1, double p2);
};

/** `noise` when it is enabled, after validating it; else null. */
const NoiseModel* activeNoise(const NoiseModel* noise);

} // namespace qa

#endif // QA_SIM_NOISE_HPP
