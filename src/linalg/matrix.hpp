/**
 * @file
 * Dense complex matrix used for gate unitaries and density matrices.
 */
#ifndef QA_LINALG_MATRIX_HPP
#define QA_LINALG_MATRIX_HPP

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "linalg/types.hpp"
#include "linalg/vector.hpp"

namespace qa
{

/**
 * Dense complex matrix, row-major.
 *
 * Sized for quantum work at assertion scale (dimension <= a few hundred):
 * plain O(n^3) multiplication, no blocking. Correctness and clarity over
 * raw speed; the simulators apply gates without materializing full-system
 * matrices, so this class only sees small operands.
 */
class CMatrix
{
  public:
    /** Zero matrix of the given shape. */
    CMatrix(size_t rows = 0, size_t cols = 0)
        : rows_(rows), cols_(cols), data_(rows * cols)
    {}

    /** Construct from nested initializer lists (row by row). */
    CMatrix(std::initializer_list<std::initializer_list<Complex>> rows);

    /** Identity matrix of dimension n. */
    static CMatrix identity(size_t n);

    /** Outer product |u><v|. */
    static CMatrix outer(const CVector& u, const CVector& v);

    /** Diagonal matrix from the given entries. */
    static CMatrix diagonal(const std::vector<Complex>& entries);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    Complex& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
    const Complex&
    operator()(size_t r, size_t c) const
    {
        return data_[r * cols_ + c];
    }

    CMatrix operator+(const CMatrix& rhs) const;
    CMatrix operator-(const CMatrix& rhs) const;
    CMatrix operator*(const CMatrix& rhs) const;
    CMatrix operator*(Complex scalar) const;
    CMatrix& operator+=(const CMatrix& rhs);
    CMatrix& operator*=(Complex scalar);

    /** Matrix-vector product. */
    CVector operator*(const CVector& v) const;

    /** Conjugate transpose. */
    CMatrix dagger() const;

    /** Entry-wise complex conjugate. */
    CMatrix conjugate() const;

    /** Tensor (Kronecker) product: this (x) rhs. */
    CMatrix tensor(const CMatrix& rhs) const;

    /** Trace (requires square). */
    Complex trace() const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** True if this * this^dagger ~= I. */
    bool isUnitary(double eps = kLooseEps) const;

    /** True if this ~= this^dagger. */
    bool isHermitian(double eps = kLooseEps) const;

    /** True if square, Hermitian, unit trace, and PSD eigenvalues. */
    bool isDensityMatrix(double eps = 1e-6) const;

    /** Entry-wise approximate equality. */
    bool approxEquals(const CMatrix& other, double eps = kLooseEps) const;

    /**
     * Approximate equality up to global phase: whether there is a
     * unit-modulus c with this ~= c * other.
     */
    bool equalsUpToPhase(const CMatrix& other, double eps = kLooseEps) const;

    /** Extract column c as a vector. */
    CVector column(size_t c) const;

    /** Set column c from a vector. */
    void setColumn(size_t c, const CVector& v);

    /** Multi-line human-readable rendering. */
    std::string toString(int precision = 4) const;

  private:
    size_t rows_;
    size_t cols_;
    std::vector<Complex> data_;
};

/** Left scalar multiplication. */
inline CMatrix
operator*(Complex scalar, const CMatrix& m)
{
    return m * scalar;
}

/** Kronecker product convenience wrapper. */
inline CMatrix
kron(const CMatrix& a, const CMatrix& b)
{
    return a.tensor(b);
}

} // namespace qa

#endif // QA_LINALG_MATRIX_HPP
