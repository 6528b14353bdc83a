#include "linalg/matrix.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/format.hpp"
#include "linalg/eigen.hpp"

namespace qa
{

CMatrix::CMatrix(std::initializer_list<std::initializer_list<Complex>> rows)
    : rows_(rows.size()), cols_(0)
{
    QA_REQUIRE(rows_ > 0, "matrix initializer must be non-empty");
    cols_ = rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
        QA_REQUIRE(row.size() == cols_, "ragged matrix initializer");
        for (const Complex& x : row) data_.push_back(x);
    }
}

CMatrix
CMatrix::identity(size_t n)
{
    CMatrix m(n, n);
    for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

CMatrix
CMatrix::outer(const CVector& u, const CVector& v)
{
    CMatrix m(u.dim(), v.dim());
    for (size_t r = 0; r < u.dim(); ++r) {
        for (size_t c = 0; c < v.dim(); ++c) {
            m(r, c) = u[r] * std::conj(v[c]);
        }
    }
    return m;
}

CMatrix
CMatrix::diagonal(const std::vector<Complex>& entries)
{
    CMatrix m(entries.size(), entries.size());
    for (size_t i = 0; i < entries.size(); ++i) m(i, i) = entries[i];
    return m;
}

CMatrix
CMatrix::operator+(const CMatrix& rhs) const
{
    CMatrix out(*this);
    out += rhs;
    return out;
}

CMatrix
CMatrix::operator-(const CMatrix& rhs) const
{
    QA_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
               "matrix subtraction shape mismatch");
    CMatrix out(rows_, cols_);
    for (size_t i = 0; i < data_.size(); ++i) {
        out.data_[i] = data_[i] - rhs.data_[i];
    }
    return out;
}

CMatrix
CMatrix::operator*(const CMatrix& rhs) const
{
    QA_REQUIRE(cols_ == rhs.rows_, "matrix multiplication shape mismatch");
    CMatrix out(rows_, rhs.cols_);
    for (size_t r = 0; r < rows_; ++r) {
        for (size_t k = 0; k < cols_; ++k) {
            Complex a = (*this)(r, k);
            if (a == Complex(0.0)) continue;
            for (size_t c = 0; c < rhs.cols_; ++c) {
                out(r, c) += a * rhs(k, c);
            }
        }
    }
    return out;
}

CMatrix
CMatrix::operator*(Complex scalar) const
{
    CMatrix out(*this);
    out *= scalar;
    return out;
}

CMatrix&
CMatrix::operator+=(const CMatrix& rhs)
{
    QA_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
               "matrix addition shape mismatch");
    for (size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
    return *this;
}

CMatrix&
CMatrix::operator*=(Complex scalar)
{
    for (Complex& x : data_) x *= scalar;
    return *this;
}

CVector
CMatrix::operator*(const CVector& v) const
{
    QA_REQUIRE(cols_ == v.dim(), "matrix-vector shape mismatch");
    CVector out(rows_);
    for (size_t r = 0; r < rows_; ++r) {
        Complex sum = 0.0;
        for (size_t c = 0; c < cols_; ++c) sum += (*this)(r, c) * v[c];
        out[r] = sum;
    }
    return out;
}

CMatrix
CMatrix::dagger() const
{
    CMatrix out(cols_, rows_);
    for (size_t r = 0; r < rows_; ++r) {
        for (size_t c = 0; c < cols_; ++c) {
            out(c, r) = std::conj((*this)(r, c));
        }
    }
    return out;
}

CMatrix
CMatrix::conjugate() const
{
    CMatrix out(rows_, cols_);
    for (size_t i = 0; i < data_.size(); ++i) {
        out.data_[i] = std::conj(data_[i]);
    }
    return out;
}

CMatrix
CMatrix::tensor(const CMatrix& rhs) const
{
    CMatrix out(rows_ * rhs.rows_, cols_ * rhs.cols_);
    for (size_t r = 0; r < rows_; ++r) {
        for (size_t c = 0; c < cols_; ++c) {
            Complex a = (*this)(r, c);
            if (a == Complex(0.0)) continue;
            for (size_t rr = 0; rr < rhs.rows_; ++rr) {
                for (size_t cc = 0; cc < rhs.cols_; ++cc) {
                    out(r * rhs.rows_ + rr, c * rhs.cols_ + cc) =
                        a * rhs(rr, cc);
                }
            }
        }
    }
    return out;
}

Complex
CMatrix::trace() const
{
    QA_REQUIRE(rows_ == cols_, "trace requires a square matrix");
    Complex sum = 0.0;
    for (size_t i = 0; i < rows_; ++i) sum += (*this)(i, i);
    return sum;
}

double
CMatrix::frobeniusNorm() const
{
    double sum = 0.0;
    for (const Complex& x : data_) sum += std::norm(x);
    return std::sqrt(sum);
}

bool
CMatrix::isUnitary(double eps) const
{
    if (rows_ != cols_) return false;
    CMatrix prod = (*this) * dagger();
    return prod.approxEquals(identity(rows_), eps);
}

bool
CMatrix::isHermitian(double eps) const
{
    if (rows_ != cols_) return false;
    return approxEquals(dagger(), eps);
}

bool
CMatrix::isDensityMatrix(double eps) const
{
    if (rows_ != cols_) return false;
    if (!isHermitian(eps)) return false;
    if (std::abs(trace() - Complex(1.0)) > eps) return false;
    EigenResult eig = eigHermitian(*this);
    for (double lambda : eig.values) {
        if (lambda < -eps) return false;
    }
    return true;
}

bool
CMatrix::approxEquals(const CMatrix& other, double eps) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_) return false;
    for (size_t i = 0; i < data_.size(); ++i) {
        if (std::abs(data_[i] - other.data_[i]) > eps) return false;
    }
    return true;
}

bool
CMatrix::equalsUpToPhase(const CMatrix& other, double eps) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_) return false;
    // Find the largest-magnitude entry of `other` to estimate the phase.
    size_t best = 0;
    double best_mag = 0.0;
    for (size_t i = 0; i < data_.size(); ++i) {
        double mag = std::abs(other.data_[i]);
        if (mag > best_mag) {
            best_mag = mag;
            best = i;
        }
    }
    if (best_mag <= eps) return frobeniusNorm() <= eps;
    Complex phase = data_[best] / other.data_[best];
    double pmag = std::abs(phase);
    if (std::abs(pmag - 1.0) > eps) return false;
    for (size_t i = 0; i < data_.size(); ++i) {
        if (std::abs(data_[i] - phase * other.data_[i]) > eps) return false;
    }
    return true;
}

CVector
CMatrix::column(size_t c) const
{
    QA_REQUIRE(c < cols_, "column index out of range");
    CVector v(rows_);
    for (size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
    return v;
}

void
CMatrix::setColumn(size_t c, const CVector& v)
{
    QA_REQUIRE(c < cols_ && v.dim() == rows_, "setColumn shape mismatch");
    for (size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

std::string
CMatrix::toString(int precision) const
{
    std::ostringstream oss;
    for (size_t r = 0; r < rows_; ++r) {
        oss << "[ ";
        for (size_t c = 0; c < cols_; ++c) {
            oss << formatComplex((*this)(r, c), precision);
            if (c + 1 < cols_) oss << ", ";
        }
        oss << " ]\n";
    }
    return oss.str();
}

} // namespace qa
