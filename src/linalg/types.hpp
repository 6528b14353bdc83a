/**
 * @file
 * Core scalar types and numeric tolerances for the linear-algebra layer.
 */
#ifndef QA_LINALG_TYPES_HPP
#define QA_LINALG_TYPES_HPP

#include <complex>

namespace qa
{

/** Complex scalar used throughout qassert. */
using Complex = std::complex<double>;

/** Default absolute tolerance for floating-point comparisons. */
inline constexpr double kEps = 1e-9;

/** Looser tolerance for quantities accumulated over many operations. */
inline constexpr double kLooseEps = 1e-7;

/** The imaginary unit. */
inline constexpr Complex kI{0.0, 1.0};

} // namespace qa

#endif // QA_LINALG_TYPES_HPP
