/**
 * @file
 * Bond-dimension-capped matrix-product-state simulation core
 * (DESIGN.md Sec. 16): the third scaling law next to the 2^n dense
 * engines and the Clifford-only tableau. A pure state over n qubits is
 * held as a chain of site tensors B_i (shape chi_left x 2 x chi_right)
 * in right-canonical B-form plus the Schmidt spectrum Lambda_i of every
 * bond, so storage and gate cost scale with the entanglement the
 * circuit actually creates — O(n * chi^2) amplitudes-equivalent, chi
 * capped by the caller — instead of with 2^n.
 *
 *  - 1q gates are local tensor contractions, O(chi^2); they preserve
 *    canonical form exactly.
 *  - Nearest-neighbor 2q gates contract the two-site theta tensor,
 *    split it with an SVD (linalg/svd.hpp), and keep the top chi
 *    singular values. The discarded Schmidt weight is accumulated in
 *    TruncationStats — the backend's honesty metric. The update uses
 *    the Hastings trick (contract Lambda on the left, never divide by
 *    singular values), so near-zero Schmidt coefficients cannot blow
 *    up numerically.
 *  - Long-range 2q gates are SWAP-routed: the farther qubit is moved
 *    adjacent with nearest-neighbor SWAP updates, the gate applied, and
 *    the moves undone, keeping the qubit -> site map the identity.
 *  - Measurement/reset project a site tensor and re-canonicalize the
 *    chain with two exact SVD sweeps, O(n * chi^3): afterwards every
 *    Lambda is again the true Schmidt spectrum, so later probabilities
 *    and truncations stay correct.
 *  - sampleAll draws one bitstring left-to-right from conditional
 *    single-site probabilities, O(n * chi^2) per shot, valid because
 *    the chain is right-canonical.
 *
 * Determinism: every method is a pure function of the state and the
 * caller's Rng. No globals, no threads, no wall clock.
 */
#ifndef QA_MPS_MPS_STATE_HPP
#define QA_MPS_MPS_STATE_HPP

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace qa
{
namespace mps
{

/** Running record of what the chi cap cost us. */
struct TruncationStats
{
    /**
     * Sum over truncation events of the discarded Schmidt weight
     * (1 - kept_fidelity per event). An upper bound on the total
     * infidelity accumulated by the chi cap; exactly 0.0 when the cap
     * was never binding.
     */
    double discarded_weight = 0.0;

    /** Largest bond dimension the chain actually reached. */
    int max_bond = 1;

    /** Number of two-site SVD updates applied (incl. routing SWAPs). */
    size_t two_site_updates = 0;
};

/** One pure state in capped canonical MPS form, initialized to |0...0>. */
class MpsState
{
  public:
    MpsState(int num_qubits, int chi_cap);

    int numQubits() const { return int(sites_.size()); }
    const TruncationStats& stats() const { return stats_; }

    /** Apply a 2x2 unitary to one qubit, O(chi^2). */
    void apply1q(const CMatrix& u, int qubit);

    /**
     * Apply a 4x4 unitary to (q0, q1), q0 the most significant bit of
     * the matrix index (the Instruction convention). Non-adjacent pairs
     * are SWAP-routed; each two-site update truncates to the chi cap.
     */
    void apply2q(const CMatrix& u, int q0, int q1);

    /**
     * Probability that measuring one qubit yields 0, from its reduced
     * density. A measurement draws one uniform u and reads 0 when
     * u < probabilityZero(qubit), then calls collapseTo.
     */
    double probabilityZero(int qubit) const;

    /**
     * Project one qubit onto `outcome`, renormalize, and re-canonicalize
     * the chain. A reset is collapseTo followed by applyX on outcome 1.
     */
    void collapseTo(int qubit, int outcome);

    /** Apply Pauli X to one qubit. */
    void applyX(int qubit);

    /** Heap and object bytes the chain holds (site tensors, spectra). */
    size_t memoryBytes() const;

    /**
     * Sample one computational-basis bitstring (qubit 0 first) by
     * left-to-right conditional probabilities; draws one uniform per
     * qubit. Does not collapse the state.
     */
    void sampleAll(Rng& rng, std::string* bits) const;

    /**
     * Exact amplitude <bits|psi> (qubit 0 = bits[0]), O(n * chi^2).
     * Test/diagnostic helper.
     */
    Complex amplitude(const std::string& bits) const;

  private:
    /** Site tensor, dims (left, 2, right); index (a*2+s)*right + b. */
    struct Site
    {
        int left = 1;
        int right = 1;
        std::vector<Complex> t;
    };

    /** Truncated two-site update at sites (i, i+1), Hastings form. */
    void applyTwoSiteGate(const CMatrix& u4, int i);

    /** SWAP the qubits at sites (i, i+1). */
    void swapSites(int i);

    /**
     * Restore exact canonical form (and unit norm) with a
     * left-canonicalizing sweep followed by a right-canonicalizing
     * sweep that re-derives every Lambda. Rank-revealing only — no chi
     * truncation, no added error.
     */
    void canonicalize();

    int chi_cap_;
    std::vector<Site> sites_;

    /** lambda_[i] = Schmidt spectrum of the bond left of site i;
     *  lambda_[0] and lambda_[n] are the trivial edge bonds {1}. */
    std::vector<std::vector<double>> lambda_;

    TruncationStats stats_;
};

} // namespace mps
} // namespace qa

#endif // QA_MPS_MPS_STATE_HPP
