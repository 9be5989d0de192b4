// Preconditioned conjugate gradient for sparse symmetric systems.
//
// conjugate_gradient_with(...) is the one CG body: a workspace template over
// any linear operator, zero allocations per iteration (in-place SpMV +
// ordered chunked dot reductions). conjugate_gradient(...) is a convenience
// wrapper that runs it serially on a CsrMatrix with a fresh workspace.
#pragma once

#include <cmath>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace parma::linalg {

struct IterativeOptions {
  Index max_iterations = 10000;
  Real tolerance = 1e-10;  ///< relative residual ||r|| / ||b||
};

struct IterativeResult {
  std::vector<Real> x;
  Index iterations = 0;
  Real relative_residual = 0.0;
  bool converged = false;
};

/// Conjugate gradient for symmetric positive-(semi)definite A, with Jacobi
/// (diagonal) preconditioning. `x0` seeds the iteration (zeros if empty).
/// Serial conjugate_gradient_with over SerialCsrOperator.
IterativeResult conjugate_gradient(const CsrMatrix& a, const std::vector<Real>& b,
                                   const IterativeOptions& options = {},
                                   std::vector<Real> x0 = {});

/// Preallocated scratch for conjugate_gradient_with: one resize when the
/// problem size first appears, zero allocations per CG iteration thereafter.
struct CgWorkspace {
  std::vector<Real> r;         ///< residual
  std::vector<Real> z;         ///< preconditioned residual
  std::vector<Real> p;         ///< search direction
  std::vector<Real> ap;        ///< operator-applied direction
  std::vector<Real> inv_diag;  ///< Jacobi preconditioner
  std::vector<Real> partials;  ///< ordered dot-reduction partials

  void resize(std::size_t n) {
    r.resize(n);
    z.resize(n);
    p.resize(n);
    ap.resize(n);
    inv_diag.resize(n);
    partials.resize(dot_chunk_count(n));
  }
};

/// Workspace CG over any linear operator `Op` exposing
///   Index rows() const;
///   void multiply_into(const std::vector<Real>& x, std::vector<Real>& y) const;
///   void diagonal_into(std::vector<Real>& d) const;
///   Real dot(const std::vector<Real>&, const std::vector<Real>&,
///            std::vector<Real>& partials) const;
/// Operators whose multiply_into/dot produce the same bits (SerialCsrOperator
/// below, or the executor-backed operator in solver/system_kernels.hpp, whose
/// ordered reductions match the serial ones) give bit-identical solves.
///
/// `precond` is the preconditioner seam: null runs inline Jacobi (z = r /
/// diag(A), a zero diagonal preconditions with 1); non-null routes z = M⁻¹ r
/// through Preconditioner::apply instead.
template <typename Op>
IterativeResult conjugate_gradient_with(const Op& op, const std::vector<Real>& b,
                                        const IterativeOptions& options, CgWorkspace& ws,
                                        const Preconditioner* precond,
                                        std::vector<Real> x0 = {}) {
  PARMA_REQUIRE(static_cast<Index>(b.size()) == op.rows(), "CG rhs size mismatch");
  const std::size_t n = b.size();
  ws.resize(n);

  IterativeResult result;
  result.x = x0.empty() ? std::vector<Real>(n, 0.0) : std::move(x0);
  PARMA_REQUIRE(result.x.size() == n, "CG x0 size mismatch");

  // Chaos hook: a fired kCgNonConvergence point reports the seed iterate as
  // non-converged with a full residual, exactly what an ill-conditioned
  // system stalling at max_iterations looks like to the caller.
  if (fault::should_fire(fault::Point::kCgNonConvergence)) {
    result.relative_residual = 1.0;
    result.converged = false;
    return result;
  }

  const Real norm_b = std::sqrt(op.dot(b, b, ws.partials));
  if (norm_b == 0.0) {
    result.x.assign(n, 0.0);
    result.converged = true;
    return result;
  }

  if (precond == nullptr) {
    op.diagonal_into(ws.inv_diag);
    for (Real& d : ws.inv_diag) d = (d != 0.0) ? 1.0 / d : 1.0;
  }
  const auto apply_precond = [&] {
    if (precond == nullptr) {
      for (std::size_t i = 0; i < n; ++i) ws.z[i] = ws.inv_diag[i] * ws.r[i];
    } else {
      precond->apply(ws.r, ws.z);
    }
  };

  op.multiply_into(result.x, ws.ap);
  for (std::size_t i = 0; i < n; ++i) ws.r[i] = b[i] - ws.ap[i];
  apply_precond();
  ws.p = ws.z;
  Real rz = op.dot(ws.r, ws.z, ws.partials);

  for (Index it = 0; it < options.max_iterations; ++it) {
    result.relative_residual = std::sqrt(op.dot(ws.r, ws.r, ws.partials)) / norm_b;
    if (result.relative_residual <= options.tolerance) {
      result.converged = true;
      result.iterations = it;
      return result;
    }
    op.multiply_into(ws.p, ws.ap);
    const Real pap = op.dot(ws.p, ws.ap, ws.partials);
    if (pap <= 0.0) {
      // Indefinite or numerically null direction: stop with current iterate.
      result.iterations = it;
      return result;
    }
    const Real alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) result.x[i] += alpha * ws.p[i];
    for (std::size_t i = 0; i < n; ++i) ws.r[i] += -alpha * ws.ap[i];
    apply_precond();
    const Real rz_new = op.dot(ws.r, ws.z, ws.partials);
    const Real beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) ws.p[i] = ws.z[i] + beta * ws.p[i];
  }
  result.iterations = options.max_iterations;
  result.relative_residual = std::sqrt(op.dot(ws.r, ws.r, ws.partials)) / norm_b;
  result.converged = result.relative_residual <= options.tolerance;
  return result;
}

/// Inline-Jacobi overload (no preconditioner object).
template <typename Op>
IterativeResult conjugate_gradient_with(const Op& op, const std::vector<Real>& b,
                                        const IterativeOptions& options,
                                        CgWorkspace& ws, std::vector<Real> x0 = {}) {
  return conjugate_gradient_with(op, b, options, ws, nullptr, std::move(x0));
}

/// Serial CsrMatrix adapter for conjugate_gradient_with.
class SerialCsrOperator {
 public:
  explicit SerialCsrOperator(const CsrMatrix& a) : a_(&a) {
    PARMA_REQUIRE(a.rows() == a.cols(), "CG needs a square matrix");
  }
  [[nodiscard]] Index rows() const { return a_->rows(); }
  void multiply_into(const std::vector<Real>& x, std::vector<Real>& y) const {
    a_->multiply_into(x, y);
  }
  void diagonal_into(std::vector<Real>& d) const {
    d.assign(static_cast<std::size_t>(a_->rows()), 0.0);
    const auto& row_ptr = a_->row_ptr();
    const auto& col_idx = a_->col_idx();
    const auto& values = a_->values();
    for (Index r = 0; r < a_->rows(); ++r) {
      for (Index k = row_ptr[static_cast<std::size_t>(r)];
           k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        if (col_idx[static_cast<std::size_t>(k)] == r) {
          d[static_cast<std::size_t>(r)] = values[static_cast<std::size_t>(k)];
          break;
        }
      }
    }
  }
  [[nodiscard]] Real dot(const std::vector<Real>& a, const std::vector<Real>& b,
                         std::vector<Real>& partials) const {
    return ordered_dot(a, b, partials);
  }

 private:
  const CsrMatrix* a_;
};

}  // namespace parma::linalg
