// The solver fallback ladder: one linear solve, three escalating attempts.
//
//   rung 1  CG          preconditioned conjugate gradient as-is;
//   rung 2  Tikhonov    CG retried on the ridge-regularized system
//                       (A + tau I) x = b with an adapted (looser) tolerance,
//                       warm-started from rung 1's iterate;
//   rung 3  Dense       direct LU via linalg::solve_dense, with the same
//                       ridge added if the plain matrix is singular.
//
// The ladder is how the iterative joint-constraint solve (paper Section
// IV-A) survives the ill-conditioned or noisy measurements where CG alone
// stalls: escalation happens only on non-convergence or a non-finite
// iterate, so the fast path's numerics are untouched -- when CG converges,
// the result is bit-identical to calling conjugate_gradient_with directly.
//
// SolveDiagnostics accumulates which rungs ran across the outer iteration
// and is surfaced end-to-end (solver results -> serve::ParametrizeResult ->
// serve::Stats), so a production operator can see "this shape is living on
// the dense rung" before it becomes an outage.
#pragma once

#include <vector>

#include "linalg/iterative.hpp"
#include "linalg/sparse_matrix.hpp"

namespace parma::exec {
class Executor;
}

namespace parma::solver {

/// The ladder rung that produced a solution (kNone = no solve ran yet).
enum class FallbackRung : int { kNone = 0, kCg = 1, kTikhonov = 2, kDense = 3 };

const char* fallback_rung_name(FallbackRung rung);

/// Aggregate of every linear solve inside one outer (GN/LM) solve.
struct SolveDiagnostics {
  FallbackRung highest_rung = FallbackRung::kNone;  ///< worst rung needed
  Index linear_solves = 0;      ///< ladder invocations
  Index cg_iterations = 0;      ///< total CG iterations across all rungs
  Index tikhonov_retries = 0;   ///< solves that needed rung 2
  Index dense_fallbacks = 0;    ///< solves that needed rung 3
  bool converged = true;        ///< outer solve converged (set by the solver)

  /// True when any solve escalated past plain CG.
  [[nodiscard]] bool degraded() const { return highest_rung > FallbackRung::kCg; }

  /// Fold another solve's diagnostics in (e.g. per-attempt aggregation).
  void merge(const SolveDiagnostics& other);
};

struct FallbackOptions {
  linalg::IterativeOptions cg;      ///< rung 1 configuration
  /// Rung 2 ridge: tau = tikhonov_scale * max |diag(A)| (floored at 1e-300).
  Real tikhonov_scale = 1e-8;
  /// Rung 2 tolerance = cg.tolerance * tikhonov_tolerance_factor.
  Real tikhonov_tolerance_factor = 100.0;
  /// Preconditioner for the CG rungs. Null = inline Jacobi. The ladder does
  /// not own or refresh it -- the caller refreshes from the current numeric
  /// values before each solve. Rung 2 reuses it unrefreshed on the ridged
  /// system: the ridge only strengthens the diagonal, so M stays a valid
  /// (slightly stale) SPD preconditioner there.
  const linalg::Preconditioner* preconditioner = nullptr;
};

/// Scratch state for the ladder: one CG workspace reused across every linear
/// solve of an outer iteration (zero allocations per CG iteration) plus the
/// executor driving parallel SpMV / ordered dot reductions inside CG (null =
/// serial; the parallel reductions are bit-identical to serial, see
/// linalg/vector_ops.hpp).
struct LadderWorkspace {
  linalg::CgWorkspace cg;
  exec::Executor* executor = nullptr;
  /// Optional SIMD-friendly shadow of the rung-1 matrix (the caller keeps it
  /// refreshed beside the CSR values; see SystemKernels::padded_normal). Only
  /// consulted when the matrix handed to the ladder IS the one the shadow
  /// mirrors -- the ridged rung-2 copy always multiplies through its own CSR.
  const linalg::PaddedCsrChunks* padded = nullptr;
};

/// Runs the ladder on A x = b. Escalates CG -> Tikhonov -> dense; records
/// into `diagnostics`; throws NumericalError only if every rung fails
/// (including the ridged dense solve). Rung 2 reuses A's sparsity pattern and
/// adds the ridge in place when the diagonal is structurally present (it
/// always is for kernel-built normal matrices), rebuilding through a
/// CooBuilder only when it is not.
std::vector<Real> solve_with_fallback(const linalg::CsrMatrix& a,
                                      const std::vector<Real>& b,
                                      const FallbackOptions& options,
                                      SolveDiagnostics& diagnostics,
                                      LadderWorkspace& workspace);

}  // namespace parma::solver
