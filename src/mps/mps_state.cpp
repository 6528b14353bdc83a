#include "mps/mps_state.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/svd.hpp"

namespace qa
{
namespace mps
{

namespace
{

/** The SWAP unitary used for long-range gate routing. */
const CMatrix&
swapMatrix()
{
    static const CMatrix swap{{1, 0, 0, 0},
                              {0, 0, 1, 0},
                              {0, 1, 0, 0},
                              {0, 0, 0, 1}};
    return swap;
}

/** Pauli X, for applyX (a reset's measure-and-correct). */
const CMatrix&
xMatrix()
{
    static const CMatrix x{{0, 1}, {1, 0}};
    return x;
}

/** Conjugate a 4x4 two-qubit unitary by SWAP (exchange the factors). */
CMatrix
conjugateBySwap(const CMatrix& u)
{
    static constexpr size_t perm[4] = {0, 2, 1, 3};
    CMatrix out(4, 4);
    for (size_t r = 0; r < 4; ++r) {
        for (size_t c = 0; c < 4; ++c) {
            out(r, c) = u(perm[r], perm[c]);
        }
    }
    return out;
}

/** Normalize a Schmidt spectrum to unit 2-norm. */
void
normalizeSpectrum(std::vector<double>* sigma)
{
    double sum = 0.0;
    for (double s : *sigma) sum += s * s;
    QA_REQUIRE(sum > 0.0, "MPS bond spectrum collapsed to zero");
    const double inv = 1.0 / std::sqrt(sum);
    for (double& s : *sigma) s *= inv;
}

} // namespace

MpsState::MpsState(int num_qubits, int chi_cap) : chi_cap_(chi_cap)
{
    QA_REQUIRE(num_qubits >= 1, "MpsState needs at least one qubit");
    QA_REQUIRE(chi_cap >= 1, "MPS bond-dimension cap must be >= 1");
    sites_.resize(size_t(num_qubits));
    for (Site& site : sites_) {
        site.t.assign(2, Complex(0.0));
        site.t[0] = 1.0; // |0>
    }
    lambda_.assign(size_t(num_qubits) + 1, {1.0});
}

void
MpsState::apply1q(const CMatrix& u, int qubit)
{
    QA_REQUIRE(qubit >= 0 && qubit < numQubits(),
               "MPS 1q gate qubit out of range");
    QA_REQUIRE(u.rows() == 2 && u.cols() == 2,
               "MPS 1q gate needs a 2x2 unitary");
    Site& site = sites_[size_t(qubit)];
    const int r = site.right;
    for (int a = 0; a < site.left; ++a) {
        for (int b = 0; b < r; ++b) {
            const Complex t0 = site.t[size_t(a * 2 + 0) * size_t(r) + size_t(b)];
            const Complex t1 = site.t[size_t(a * 2 + 1) * size_t(r) + size_t(b)];
            site.t[size_t(a * 2 + 0) * size_t(r) + size_t(b)] =
                u(0, 0) * t0 + u(0, 1) * t1;
            site.t[size_t(a * 2 + 1) * size_t(r) + size_t(b)] =
                u(1, 0) * t0 + u(1, 1) * t1;
        }
    }
}

void
MpsState::apply2q(const CMatrix& u, int q0, int q1)
{
    QA_REQUIRE(q0 != q1, "MPS 2q gate needs distinct qubits");
    QA_REQUIRE(q0 >= 0 && q0 < numQubits() && q1 >= 0 &&
                   q1 < numQubits(),
               "MPS 2q gate qubit out of range");
    QA_REQUIRE(u.rows() == 4 && u.cols() == 4,
               "MPS 2q gate needs a 4x4 unitary");
    const int lo = std::min(q0, q1);
    const int hi = std::max(q0, q1);
    const CMatrix local = q0 < q1 ? u : conjugateBySwap(u);

    // SWAP-route: walk the qubit at `hi` down to site lo+1, apply,
    // walk it back so the qubit -> site map stays the identity.
    for (int s = hi - 1; s > lo; --s) swapSites(s);
    applyTwoSiteGate(local, lo);
    for (int s = lo + 1; s < hi; ++s) swapSites(s);
}

void
MpsState::swapSites(int i)
{
    applyTwoSiteGate(swapMatrix(), i);
}

void
MpsState::applyTwoSiteGate(const CMatrix& u4, int i)
{
    Site& left = sites_[size_t(i)];
    Site& right = sites_[size_t(i) + 1];
    const int cl = left.left;
    const int mid = left.right;
    const int cr = right.right;
    const int rows = cl * 2;
    const int cols = 2 * cr;

    // theta without the left Lambda (Hastings form): B_i contracted
    // with B_{i+1}, indexed [(a,s1), (s2,b)].
    std::vector<Complex> theta_nl(size_t(rows) * size_t(cols), Complex(0.0));
    for (int a = 0; a < cl; ++a) {
        for (int s1 = 0; s1 < 2; ++s1) {
            for (int m = 0; m < mid; ++m) {
                const Complex lt =
                    left.t[size_t(a * 2 + s1) * size_t(mid) + size_t(m)];
                if (lt == Complex(0.0)) continue;
                for (int s2 = 0; s2 < 2; ++s2) {
                    for (int b = 0; b < cr; ++b) {
                        theta_nl[size_t(a * 2 + s1) * size_t(cols) +
                                 size_t(s2 * cr + b)] +=
                            lt * right.t[size_t(m * 2 + s2) * size_t(cr) +
                                         size_t(b)];
                    }
                }
            }
        }
    }

    // Apply the gate on the physical indices.
    std::vector<Complex> gated(size_t(rows) * size_t(cols), Complex(0.0));
    for (int a = 0; a < cl; ++a) {
        for (int b = 0; b < cr; ++b) {
            for (int sp = 0; sp < 4; ++sp) {
                Complex acc = 0.0;
                for (int sq = 0; sq < 4; ++sq) {
                    const Complex coeff = u4(size_t(sp), size_t(sq));
                    if (coeff == Complex(0.0)) continue;
                    acc += coeff *
                           theta_nl[size_t(a * 2 + (sq >> 1)) *
                                        size_t(cols) +
                                    size_t((sq & 1) * cr + b)];
                }
                gated[size_t(a * 2 + (sp >> 1)) * size_t(cols) +
                      size_t((sp & 1) * cr + b)] = acc;
            }
        }
    }

    // Full theta = diag(Lambda_left) * gated; split it with an SVD.
    CMatrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
    for (int a = 0; a < cl; ++a) {
        const double lam = lambda_[size_t(i)][size_t(a)];
        for (int s1 = 0; s1 < 2; ++s1) {
            for (int c = 0; c < cols; ++c) {
                m(size_t(a * 2 + s1), size_t(c)) =
                    lam * gated[size_t(a * 2 + s1) * size_t(cols) +
                                size_t(c)];
            }
        }
    }
    const SvdResult svd = svdThin(m);
    QA_REQUIRE(svd.rank() > 0,
               "MPS two-site update produced a zero-norm state");

    // Truncate to the cap; record the discarded Schmidt weight.
    const size_t k = std::min(svd.rank(), size_t(chi_cap_));
    double total = 0.0;
    double kept = 0.0;
    for (size_t j = 0; j < svd.rank(); ++j) {
        const double w = svd.sigma[j] * svd.sigma[j];
        total += w;
        if (j < k) kept += w;
    }
    stats_.discarded_weight += total > 0.0 ? (total - kept) / total : 0.0;
    stats_.max_bond = std::max(stats_.max_bond, int(k));
    ++stats_.two_site_updates;

    // New bond spectrum (renormalized to unit weight).
    const double inv_norm = 1.0 / std::sqrt(kept);
    std::vector<double>& bond = lambda_[size_t(i) + 1];
    bond.resize(k);
    for (size_t j = 0; j < k; ++j) bond[j] = svd.sigma[j] * inv_norm;

    // New right tensor: the kept rows of V^dagger (right-canonical).
    right.left = int(k);
    right.t.assign(size_t(k) * 2 * size_t(cr), Complex(0.0));
    for (size_t j = 0; j < k; ++j) {
        for (int s2 = 0; s2 < 2; ++s2) {
            for (int b = 0; b < cr; ++b) {
                right.t[(j * 2 + size_t(s2)) * size_t(cr) + size_t(b)] =
                    svd.vdag(j, size_t(s2 * cr + b));
            }
        }
    }

    // New left tensor by the Hastings trick: contract the un-weighted
    // gated theta with V (never divide by Lambda).
    left.right = int(k);
    left.t.assign(size_t(cl) * 2 * k, Complex(0.0));
    for (int a = 0; a < cl; ++a) {
        for (int s1 = 0; s1 < 2; ++s1) {
            for (size_t j = 0; j < k; ++j) {
                Complex acc = 0.0;
                for (int c = 0; c < cols; ++c) {
                    acc += gated[size_t(a * 2 + s1) * size_t(cols) +
                                 size_t(c)] *
                           std::conj(svd.vdag(j, size_t(c)));
                }
                left.t[size_t(a * 2 + s1) * k + j] = acc * inv_norm;
            }
        }
    }
}

double
MpsState::probabilityZero(int qubit) const
{
    QA_REQUIRE(qubit >= 0 && qubit < numQubits(),
               "MPS measurement qubit out of range");
    const Site& site = sites_[size_t(qubit)];
    const int r = site.right;

    // Reduced outcome weights from the mixed-canonical environment:
    // Lambda^2-weighted row norms of the site tensor.
    double w[2] = {0.0, 0.0};
    for (int a = 0; a < site.left; ++a) {
        const double lam2 = lambda_[size_t(qubit)][size_t(a)] *
                            lambda_[size_t(qubit)][size_t(a)];
        for (int s = 0; s < 2; ++s) {
            for (int b = 0; b < r; ++b) {
                w[s] += lam2 * std::norm(site.t[size_t(a * 2 + s) *
                                                    size_t(r) +
                                                size_t(b)]);
            }
        }
    }
    const double total = w[0] + w[1];
    return total > 0.0 ? w[0] / total : 1.0;
}

void
MpsState::collapseTo(int qubit, int outcome)
{
    QA_REQUIRE(qubit >= 0 && qubit < numQubits(),
               "MPS measurement qubit out of range");
    QA_REQUIRE(outcome == 0 || outcome == 1, "outcome must be 0 or 1");
    Site& site = sites_[size_t(qubit)];
    const int r = site.right;

    // Project out the other branch; canonicalize() restores B-form,
    // the bond spectra, and unit norm in one exact pass.
    for (int a = 0; a < site.left; ++a) {
        for (int b = 0; b < r; ++b) {
            site.t[size_t(a * 2 + (1 - outcome)) * size_t(r) +
                   size_t(b)] = 0.0;
        }
    }
    canonicalize();
}

void
MpsState::applyX(int qubit)
{
    apply1q(xMatrix(), qubit);
}

size_t
MpsState::memoryBytes() const
{
    size_t bytes = sizeof(*this);
    for (const Site& site : sites_) {
        bytes += sizeof(Site) + site.t.capacity() * sizeof(Complex);
    }
    for (const std::vector<double>& spectrum : lambda_) {
        bytes += sizeof(spectrum) + spectrum.capacity() * sizeof(double);
    }
    return bytes;
}

void
MpsState::canonicalize()
{
    const int n = numQubits();

    // Sweep 1 (left to right): left-canonicalize every site, pushing
    // the residual — and finally the norm and global phase — off the
    // right edge.
    CMatrix carry = CMatrix::identity(1);
    for (int i = 0; i < n; ++i) {
        Site& site = sites_[size_t(i)];
        const int kin = int(carry.rows());
        const int r = site.right;
        CMatrix m(size_t(kin) * 2, size_t(r));
        for (int x = 0; x < kin; ++x) {
            for (int a = 0; a < site.left; ++a) {
                const Complex c = carry(size_t(x), size_t(a));
                if (c == Complex(0.0)) continue;
                for (int s = 0; s < 2; ++s) {
                    for (int b = 0; b < r; ++b) {
                        m(size_t(x * 2 + s), size_t(b)) +=
                            c * site.t[size_t(a * 2 + s) * size_t(r) +
                                       size_t(b)];
                    }
                }
            }
        }
        const SvdResult svd = svdThin(m);
        QA_REQUIRE(svd.rank() > 0,
                   "MPS canonicalization hit a zero-norm state");
        const size_t k = svd.rank();
        site.left = kin;
        site.right = int(k);
        site.t.assign(size_t(kin) * 2 * k, Complex(0.0));
        for (int x = 0; x < kin; ++x) {
            for (int s = 0; s < 2; ++s) {
                for (size_t j = 0; j < k; ++j) {
                    site.t[size_t(x * 2 + s) * k + j] =
                        svd.u(size_t(x * 2 + s), j);
                }
            }
        }
        carry = CMatrix(k, size_t(r));
        for (size_t j = 0; j < k; ++j) {
            for (int b = 0; b < r; ++b) {
                carry(j, size_t(b)) = svd.sigma[j] * svd.vdag(j, size_t(b));
            }
        }
    }
    // carry is now 1x1 = norm * phase; dropping it renormalizes.

    // Sweep 2 (right to left): right-canonicalize and re-derive every
    // bond's Schmidt spectrum (exact — the left environment is
    // left-canonical from sweep 1).
    CMatrix rcarry = CMatrix::identity(1);
    for (int i = n - 1; i >= 0; --i) {
        Site& site = sites_[size_t(i)];
        const int kin = int(rcarry.cols());
        const int l = site.left;
        CMatrix m(size_t(l), 2 * size_t(kin));
        for (int a = 0; a < l; ++a) {
            for (int s = 0; s < 2; ++s) {
                for (int y = 0; y < kin; ++y) {
                    Complex acc = 0.0;
                    for (int b = 0; b < site.right; ++b) {
                        acc += site.t[size_t(a * 2 + s) *
                                          size_t(site.right) +
                                      size_t(b)] *
                               rcarry(size_t(b), size_t(y));
                    }
                    m(size_t(a), size_t(s * kin + y)) = acc;
                }
            }
        }
        const SvdResult svd = svdThin(m);
        QA_REQUIRE(svd.rank() > 0,
                   "MPS canonicalization hit a zero-norm state");
        const size_t k = svd.rank();
        site.left = int(k);
        site.right = kin;
        site.t.assign(k * 2 * size_t(kin), Complex(0.0));
        for (size_t j = 0; j < k; ++j) {
            for (int s = 0; s < 2; ++s) {
                for (int y = 0; y < kin; ++y) {
                    site.t[(j * 2 + size_t(s)) * size_t(kin) +
                           size_t(y)] = svd.vdag(j, size_t(s * kin + y));
                }
            }
        }
        std::vector<double> bond(svd.sigma);
        normalizeSpectrum(&bond);
        lambda_[size_t(i)] = std::move(bond);
        rcarry = CMatrix(size_t(l), k);
        for (int a = 0; a < l; ++a) {
            for (size_t j = 0; j < k; ++j) {
                rcarry(size_t(a), j) = svd.u(size_t(a), j) * svd.sigma[j];
            }
        }
    }
    // rcarry is 1x1 with unit modulus (a global phase); drop it.
    lambda_[0] = {1.0};
    lambda_[size_t(n)] = {1.0};
}

void
MpsState::sampleAll(Rng& rng, std::string* bits) const
{
    const int n = numQubits();
    bits->assign(size_t(n), '0');
    std::vector<Complex> v{1.0};
    std::vector<Complex> next[2];
    for (int i = 0; i < n; ++i) {
        const Site& site = sites_[size_t(i)];
        const int r = site.right;
        double w[2] = {0.0, 0.0};
        for (int s = 0; s < 2; ++s) {
            next[s].assign(size_t(r), Complex(0.0));
            for (int a = 0; a < site.left; ++a) {
                const Complex va = v[size_t(a)];
                if (va == Complex(0.0)) continue;
                for (int b = 0; b < r; ++b) {
                    next[s][size_t(b)] +=
                        va * site.t[size_t(a * 2 + s) * size_t(r) +
                                    size_t(b)];
                }
            }
            for (int b = 0; b < r; ++b) w[s] += std::norm(next[s][size_t(b)]);
        }
        const double total = w[0] + w[1];
        const double p0 = total > 0.0 ? w[0] / total : 1.0;
        const int s = rng.uniform() < p0 ? 0 : 1;
        (*bits)[size_t(i)] = char('0' + s);
        const double inv = 1.0 / std::sqrt(w[s]);
        v = std::move(next[s]);
        for (Complex& c : v) c *= inv;
    }
}

Complex
MpsState::amplitude(const std::string& bits) const
{
    QA_REQUIRE(int(bits.size()) == numQubits(),
               "amplitude bitstring width must match the qubit count");
    std::vector<Complex> v{1.0};
    for (int i = 0; i < numQubits(); ++i) {
        const Site& site = sites_[size_t(i)];
        const int s = bits[size_t(i)] == '1' ? 1 : 0;
        const int r = site.right;
        std::vector<Complex> next(size_t(r), Complex(0.0));
        for (int a = 0; a < site.left; ++a) {
            const Complex va = v[size_t(a)];
            if (va == Complex(0.0)) continue;
            for (int b = 0; b < r; ++b) {
                next[size_t(b)] +=
                    va *
                    site.t[size_t(a * 2 + s) * size_t(r) + size_t(b)];
            }
        }
        v = std::move(next);
    }
    return v[0];
}

} // namespace mps
} // namespace qa
