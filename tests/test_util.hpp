/**
 * @file
 * Shared helpers for the qassert test suite.
 */
#ifndef QA_TESTS_TEST_UTIL_HPP
#define QA_TESTS_TEST_UTIL_HPP

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "backend/backend.hpp"
#include "circuit/stdgates.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace qa
{
namespace test
{

/** EXPECT that two complex numbers agree within eps. */
inline void
expectComplexNear(Complex a, Complex b, double eps = 1e-9)
{
    EXPECT_NEAR(a.real(), b.real(), eps);
    EXPECT_NEAR(a.imag(), b.imag(), eps);
}

/**
 * One instance of a gate-table row on a 3-qubit register: qubits
 * {2, 0, 1} and params {0.3, -0.7, 1.1}, each cut to the row's counts.
 */
inline Instruction
sampleGate(const GateDef& def)
{
    const std::vector<int> qubits{2, 0, 1};
    const std::vector<double> params{0.3, -0.7, 1.1};
    return makeGate(def, {qubits.begin(), qubits.begin() + def.num_qubits},
                    {params.begin(), params.begin() + def.num_params});
}

/** EXPECT element-wise vector agreement. */
inline void
expectVectorNear(const CVector& a, const CVector& b, double eps = 1e-9)
{
    ASSERT_EQ(a.dim(), b.dim());
    for (size_t i = 0; i < a.dim(); ++i) {
        EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, eps)
            << "index " << i << ": " << a.toString() << " vs "
            << b.toString();
    }
}

/** EXPECT matrix agreement. */
inline void
expectMatrixNear(const CMatrix& a, const CMatrix& b, double eps = 1e-9)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (size_t r = 0; r < a.rows(); ++r) {
        for (size_t c = 0; c < a.cols(); ++c) {
            EXPECT_NEAR(std::abs(a(r, c) - b(r, c)), 0.0, eps)
                << "entry (" << r << ", " << c << ")";
        }
    }
}

/** The reference executions a dense backend reaches by its analysis. */
enum class Reference
{
    kUnfused,  ///< Raw gates under the analysed shot plan.
    kReplayAll ///< Raw gates, split 0, no terminal sampling.
};

/**
 * The router's analysis of `circuit` edited to reach a reference path
 * through Backend::prepare: the fused stream reset, and for kReplayAll
 * a default ShotPlan too, so every shot replays every instruction.
 */
inline backend::CircuitAnalysis
referenceAnalysis(const QuantumCircuit& circuit, const SimOptions& options,
                  Reference reference)
{
    backend::CircuitAnalysis analysis =
        backend::analyzeForRouting(circuit, options);
    analysis.fused.reset();
    if (reference == Reference::kReplayAll) analysis.plan = ShotPlan{};
    return analysis;
}

/** Counts of `circuit` on backend `kind` under referenceAnalysis. */
inline Counts
runReference(BackendKind kind, const QuantumCircuit& circuit,
             const SimOptions& options, Reference reference)
{
    const auto prepared = backend::backendFor(kind).prepare(
        circuit, options, referenceAnalysis(circuit, options, reference));
    return backend::runPrepared(*prepared, options);
}

/**
 * For every shot s < shots, a sampler that has already run shots
 * 0..s-1 must return the bitstring a fresh sampler returns for
 * Rng::forStream(seed, s), and leave the stream at the same point: what
 * a sampler memoises from earlier shots never changes a later one.
 * `seen` (optional) collects the distinct bitstrings.
 */
inline void
expectWarmSamplerMatchesCold(const backend::PreparedCircuit& prepared,
                             uint64_t seed, int shots,
                             std::set<std::string>* seen = nullptr)
{
    const auto warm = prepared.makeSampler();
    for (int s = 0; s < shots; ++s) {
        Rng warm_rng = Rng::forStream(seed, uint64_t(s));
        Rng cold_rng = Rng::forStream(seed, uint64_t(s));
        const std::string bits = warm->runOne(warm_rng);
        ASSERT_EQ(bits, prepared.makeSampler()->runOne(cold_rng))
            << "shot " << s;
        ASSERT_EQ(warm_rng.uniform(), cold_rng.uniform()) << "shot " << s;
        if (seen != nullptr) seen->insert(bits);
    }
}

} // namespace test
} // namespace qa

#endif // QA_TESTS_TEST_UTIL_HPP
