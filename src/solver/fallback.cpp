#include "solver/fallback.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "linalg/dense_solve.hpp"
#include "solver/system_kernels.hpp"

namespace parma::solver {

namespace {

bool all_finite(const std::vector<Real>& v) {
  for (Real x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

Real ridge_for(const std::vector<Real>& diag, Real scale) {
  Real max_abs = 0.0;
  for (Real d : diag) max_abs = std::max(max_abs, std::abs(d));
  return std::max(scale * max_abs, Real{1e-300});
}

linalg::CsrMatrix add_ridge(const linalg::CsrMatrix& a, Real tau) {
  linalg::CooBuilder builder(a.rows(), a.cols());
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index k = row_ptr[static_cast<std::size_t>(r)];
         k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      builder.add(r, col_idx[static_cast<std::size_t>(k)],
                  values[static_cast<std::size_t>(k)]);
    }
  }
  for (Index d = 0; d < a.rows(); ++d) builder.add(d, d, tau);
  return builder.build();
}

linalg::DenseMatrix add_ridge(const linalg::DenseMatrix& a, Real tau) {
  linalg::DenseMatrix ridged = a;
  for (Index d = 0; d < a.rows(); ++d) ridged(d, d) += tau;
  return ridged;
}

linalg::DenseMatrix densify(const linalg::CsrMatrix& a) {
  linalg::DenseMatrix dense(a.rows(), a.cols());
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index k = row_ptr[static_cast<std::size_t>(r)];
         k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      dense(r, col_idx[static_cast<std::size_t>(k)]) = values[static_cast<std::size_t>(k)];
    }
  }
  return dense;
}

// Rung 3: direct LU, then the ridged retry.
std::vector<Real> dense_rung(const linalg::DenseMatrix& dense, const std::vector<Real>& b,
                             Real tau) {
  try {
    std::vector<Real> x = linalg::solve_dense(dense, b);
    if (all_finite(x)) return x;
  } catch (const NumericalError&) {
    // fall through to the ridged attempt
  }
  std::vector<Real> x = linalg::solve_dense(add_ridge(dense, tau), b);
  if (!all_finite(x)) {
    throw NumericalError("fallback ladder exhausted: dense solve produced non-finite values");
  }
  return x;
}

// Pattern-preserving ridge: copies A and adds tau on the diagonal slots in
// place. Requires every A(i, i) structurally present (kernel-built normal
// matrices force the diagonal); falls back to the CooBuilder rebuild when one
// is missing.
linalg::CsrMatrix add_ridge_in_pattern(const linalg::CsrMatrix& a, Real tau) {
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  std::vector<Index> diag_slots(static_cast<std::size_t>(a.rows()));
  for (Index r = 0; r < a.rows(); ++r) {
    const auto begin = col_idx.begin() + row_ptr[static_cast<std::size_t>(r)];
    const auto end = col_idx.begin() + row_ptr[static_cast<std::size_t>(r) + 1];
    const auto it = std::lower_bound(begin, end, r);
    if (it == end || *it != r) return add_ridge(a, tau);
    diag_slots[static_cast<std::size_t>(r)] = static_cast<Index>(it - col_idx.begin());
  }
  linalg::CsrMatrix ridged = a;
  auto& values = ridged.values_mut();
  for (Index r = 0; r < a.rows(); ++r) {
    values[static_cast<std::size_t>(diag_slots[static_cast<std::size_t>(r)])] += tau;
  }
  return ridged;
}

}  // namespace

const char* fallback_rung_name(FallbackRung rung) {
  switch (rung) {
    case FallbackRung::kNone: return "none";
    case FallbackRung::kCg: return "cg";
    case FallbackRung::kTikhonov: return "tikhonov";
    case FallbackRung::kDense: return "dense";
  }
  return "?";
}

void SolveDiagnostics::merge(const SolveDiagnostics& other) {
  highest_rung = std::max(highest_rung, other.highest_rung);
  linear_solves += other.linear_solves;
  cg_iterations += other.cg_iterations;
  tikhonov_retries += other.tikhonov_retries;
  dense_fallbacks += other.dense_fallbacks;
  converged = converged && other.converged;
}

std::vector<Real> solve_with_fallback(const linalg::CsrMatrix& a,
                                      const std::vector<Real>& b,
                                      const FallbackOptions& options,
                                      SolveDiagnostics& diagnostics,
                                      LadderWorkspace& workspace) {
  PARMA_REQUIRE(a.rows() == a.cols(), "fallback ladder needs a square matrix");
  ++diagnostics.linear_solves;
  const auto note_rung = [&](FallbackRung rung) {
    diagnostics.highest_rung = std::max(diagnostics.highest_rung, rung);
  };

  // Rung 1: preconditioned CG. A converged, finite iterate takes the fast
  // exit with numerics identical to calling conjugate_gradient_with directly.
  linalg::IterativeResult cg = linalg::conjugate_gradient_with(
      ParallelCsrOperator(a, workspace.executor, workspace.padded), b, options.cg,
      workspace.cg, options.preconditioner);
  diagnostics.cg_iterations += cg.iterations;
  if (cg.converged && all_finite(cg.x)) {
    note_rung(FallbackRung::kCg);
    return std::move(cg.x);
  }

  // Rung 2: Tikhonov-regularized retry. The ridge shifts the spectrum away
  // from zero (where CG stalls on near-singular normal equations) and the
  // tolerance is adapted -- an approximate step is enough for the outer
  // iteration to keep descending. Warm-start from rung 1 when it is usable.
  // The padded shadow mirrors `a` only; the ridged copy multiplies through
  // its own CSR.
  ++diagnostics.tikhonov_retries;
  note_rung(FallbackRung::kTikhonov);
  const Real tau = ridge_for(a.diagonal(), options.tikhonov_scale);
  const linalg::CsrMatrix ridged = add_ridge_in_pattern(a, tau);
  linalg::IterativeOptions relaxed = options.cg;
  relaxed.tolerance = options.cg.tolerance * options.tikhonov_tolerance_factor;
  std::vector<Real> warm = all_finite(cg.x) ? std::move(cg.x) : std::vector<Real>{};
  linalg::IterativeResult retry = linalg::conjugate_gradient_with(
      ParallelCsrOperator(ridged, workspace.executor), b, relaxed, workspace.cg,
      options.preconditioner, std::move(warm));
  diagnostics.cg_iterations += retry.iterations;
  if (retry.converged && all_finite(retry.x)) {
    return std::move(retry.x);
  }

  // Rung 3: direct dense solve -- the last resort that does not depend on
  // conditioning-sensitive iteration at all. A singular matrix gets the same
  // ridge; only if that also fails does the ladder give up.
  ++diagnostics.dense_fallbacks;
  note_rung(FallbackRung::kDense);
  return dense_rung(densify(a), b, tau);
}

}  // namespace parma::solver
