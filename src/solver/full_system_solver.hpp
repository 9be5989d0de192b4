// Gauss-Newton over the FULL joint-constraint system.
//
// Works directly on the 2n^3 equations in (2n-1) n^2 unknowns produced by
// equations::generate_system -- resistances and pair voltages solved jointly,
// exactly the system the paper's Parma forms. The system is overdetermined
// by n^2 rows; each Gauss-Newton step solves the normal equations
// J^T J delta = -J^T r with block-Jacobi-preconditioned CG, through the
// CG -> Tikhonov -> dense fallback ladder (fallback.hpp). J, J^T J and the
// residual are refreshed in place through the symbolic/numeric kernel layer
// (system_kernels.hpp).
//
// Complements inverse_solver.hpp (which eliminates the voltages pair-by-pair
// and is the faster production path); tests assert both recover the same
// grids, which validates the generated equation set end to end.
#pragma once

#include <memory>
#include <vector>

#include "circuit/crossbar.hpp"
#include "equations/generator.hpp"
#include "mea/measurement.hpp"
#include "solver/fallback.hpp"
#include "solver/robust.hpp"
#include "solver/system_kernels.hpp"

namespace parma::solver {

struct FullSystemOptions {
  Index max_iterations = 30;
  Real tolerance = 1e-10;        ///< stop when the residual RMS falls below
  Index cg_max_iterations = 2000;
  Real cg_tolerance = 1e-12;
  Real step_clamp = 0.5;         ///< max |relative| change of any unknown per step
  /// Escalation knobs for the per-step normal-equation solve (the CG ->
  /// Tikhonov -> dense ladder; cg_max_iterations/cg_tolerance configure the
  /// first rung). See fallback.hpp.
  Real tikhonov_scale = 1e-8;
  Real tikhonov_tolerance_factor = 100.0;
  /// IRLS robust loss over the equation residuals (robust.hpp). kNone keeps
  /// the plain least-squares iteration bit-identical to the pre-robust
  /// solver.
  RobustOptions robust;
};

/// Optional amortization state for solve_full_system: a warm executor to
/// parallelize refreshes, residuals, and CG products (null = serial; the
/// results are bit-identical either way), and the shape-cached symbolic
/// structure (null = analyze on entry; core::FormationCache shares one
/// analysis across every system of a shape).
struct KernelContext {
  exec::Executor* executor = nullptr;
  std::shared_ptr<const SystemSymbolic> symbolic;
};

struct FullSystemResult {
  std::vector<Real> unknowns;  ///< full vector: resistances then pair voltages
  circuit::ResistanceGrid recovered{1, 1};
  Index iterations = 0;
  bool converged = false;
  Real final_residual_rms = 0.0;
  std::vector<Real> residual_history;
  /// Which fallback rungs the per-step linear solves needed (kCg only on a
  /// healthy run; Tikhonov/dense mean the system was ill-conditioned or a
  /// fault was injected).
  SolveDiagnostics diagnostics;
  /// Why the outer iteration stopped; a non-finite residual or step reports
  /// kNumericalBreakdown instead of masquerading as a stall or max-iterations.
  TerminationReason termination = TerminationReason::kMaxIterations;
  /// Robust-estimation diagnostics: final scale, down-weighted entries,
  /// condition estimate, masked-entry count (enabled reflects whether a
  /// robust loss ran).
  RobustReport robust;
};

/// Initial guess: R = Z (diagonal-dominant approximation) and pair voltages
/// from the per-pair linear solve under that guess. Masked Z entries take the
/// mean of the unmasked ones instead. The n^2 per-pair solves are independent
/// and write disjoint slots of x, so a non-null executor runs them in
/// parallel with bit-identical results.
std::vector<Real> initial_guess(const equations::EquationSystem& system,
                                const mea::Measurement& measurement,
                                exec::Executor* executor = nullptr);

FullSystemResult solve_full_system(const equations::EquationSystem& system,
                                   const mea::Measurement& measurement,
                                   const FullSystemOptions& options = {});

/// Context-threading overload for serving: reuses a warm executor and the
/// shape-cached symbolic analysis across requests.
FullSystemResult solve_full_system(const equations::EquationSystem& system,
                                   const mea::Measurement& measurement,
                                   const FullSystemOptions& options,
                                   const KernelContext& context);

}  // namespace parma::solver
