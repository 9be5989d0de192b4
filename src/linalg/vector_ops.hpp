// Free-function BLAS-1 style operations on std::vector<Real>.
//
// Vectors are plain std::vector<Real> throughout the library (Core Guidelines
// P.11: prefer the standard containers); these helpers supply the handful of
// kernels the solvers need without dragging in an external BLAS.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace parma::linalg {

/// Dot product. Requires equal sizes.
Real dot(const std::vector<Real>& a, const std::vector<Real>& b);

/// Fixed chunk boundaries for ordered dot reductions. Below the threshold the
/// whole range is ONE chunk (an ordered_dot is then bit-identical to dot());
/// above it the range splits into kDotChunk-sized pieces. The boundaries are
/// a pure function of the length -- never of the backend or worker count --
/// so chunked reductions are deterministic across executors.
inline constexpr std::size_t kSerialDotThreshold = std::size_t{1} << 15;
inline constexpr std::size_t kDotChunk = std::size_t{1} << 14;

/// Number of chunks ordered_dot uses for vectors of length n.
[[nodiscard]] std::size_t dot_chunk_count(std::size_t n);

/// Partial sum of a[i]*b[i] over the c-th fixed chunk of length-n vectors.
[[nodiscard]] Real dot_chunk_partial(const std::vector<Real>& a,
                                     const std::vector<Real>& b, std::size_t c);

/// Ordered chunked dot product: per-chunk partials over the fixed boundaries
/// above, summed in chunk order, so the bits are the same whether the
/// partials are computed serially (this function) or in parallel and then
/// reduced in order. `partials` is caller-provided scratch so the hot path
/// allocates nothing.
[[nodiscard]] Real ordered_dot(const std::vector<Real>& a, const std::vector<Real>& b,
                               std::vector<Real>& partials);

/// Euclidean norm.
Real norm2(const std::vector<Real>& a);

/// Max-norm.
Real norm_inf(const std::vector<Real>& a);

/// y += alpha * x. Requires equal sizes.
void axpy(Real alpha, const std::vector<Real>& x, std::vector<Real>& y);

/// x *= alpha.
void scale(Real alpha, std::vector<Real>& x);

/// out = a - b. Requires equal sizes.
std::vector<Real> subtract(const std::vector<Real>& a, const std::vector<Real>& b);

/// out = a + b. Requires equal sizes.
std::vector<Real> add(const std::vector<Real>& a, const std::vector<Real>& b);

/// Relative L2 error ||a - b|| / max(||b||, eps).
Real relative_error(const std::vector<Real>& a, const std::vector<Real>& b);

}  // namespace parma::linalg
