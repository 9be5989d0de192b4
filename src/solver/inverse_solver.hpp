// The MEA inverse problem: recover the resistance grid R from the measured
// pairwise impedances Z (paper Section II-C).
//
// Parametrization is in log-space (theta = ln R), which enforces R > 0 --
// the paper notes "resistance cannot be non-positive values" -- and evens out
// the 2,000-11,000 kOhm dynamic range. Levenberg-Marquardt iterations use
// the exact adjoint gradient dZ/dR = (i_branch / I)^2 from
// equations/pair_system.hpp, so one forward sweep yields the full dense
// Jacobian row per pair.
#pragma once

#include <optional>
#include <vector>

#include "circuit/crossbar.hpp"
#include "mea/measurement.hpp"
#include "solver/fallback.hpp"
#include "solver/robust.hpp"

namespace parma::solver {

struct InverseOptions {
  Index max_iterations = 50;
  Real tolerance = 1e-8;          ///< stop when relative RMS misfit falls below
  Real initial_lambda = 1e-3;     ///< LM damping start
  Real lambda_shrink = 0.3;       ///< on accepted step
  Real lambda_grow = 4.0;         ///< on rejected step
  Real initial_resistance = 0.0;  ///< starting guess; 0 means "use Z(i,j)"

  /// Worker threads for the forward sweeps (per-pair nodal solves are the
  /// independent units the topology exposes; they dominate each iteration).
  /// 1 = serial. Results are bit-identical for any worker count.
  Index workers = 1;

  /// Warm start: a full starting grid (e.g. the previous epoch's recovery in
  /// the 0/6/12/24-hour campaigns). Takes precedence over
  /// `initial_resistance`; must match the device shape and be positive.
  std::optional<circuit::ResistanceGrid> initial_grid;

  /// IRLS robust loss over the per-pair impedance residuals (robust.hpp).
  /// kNone keeps the iteration bit-identical to the pre-robust LM. Masked
  /// measurement entries are excluded from the fit either way.
  RobustOptions robust;

  /// MAP prior strength for masked solves, as a fraction of the median
  /// J^T J diagonal. A masked pair's terminal equations are gone, so its
  /// resistance (and the weakly determined combinations it couples into)
  /// would otherwise drift freely along the data null space; the prior pins
  /// log R to the initial guess with weight mu^2 = strength * median diag.
  /// Only active when the measurement has masked entries -- unmasked solves
  /// stay bit-identical to the legacy iteration. 0 disables it. The default
  /// was tuned on the 10%-corruption sweep: it keeps the masked median error
  /// within 2x of fault-free at n=8..16 (stronger priors over-bias the fit,
  /// weaker ones let the null space drift).
  Real masked_prior_strength = 3e-2;
};

struct InverseResult {
  circuit::ResistanceGrid recovered{1, 1};
  Index iterations = 0;
  bool converged = false;
  Real final_misfit = 0.0;              ///< relative RMS of Z_model vs Z_measured
  std::vector<Real> misfit_history;     ///< one entry per accepted iteration
  /// Linear-solve counts: every damped normal-equation solve is one direct
  /// dense solve (linear_solves); no CG rung runs on this path.
  SolveDiagnostics diagnostics;
  /// Why the LM loop stopped; a non-finite misfit on every damped attempt
  /// reports kNumericalBreakdown instead of looking like a stall.
  TerminationReason termination = TerminationReason::kMaxIterations;
  /// Robust-estimation diagnostics (final scale, flagged outlier entries,
  /// condition estimate, masked-entry count).
  RobustReport robust;

  /// Max relative error against a known ground truth (test/diagnostic).
  [[nodiscard]] Real max_relative_error(const circuit::ResistanceGrid& truth) const;
};

/// Relative RMS misfit between a model's Z and the measurement's Z.
Real impedance_misfit(const linalg::DenseMatrix& z_model, const linalg::DenseMatrix& z_measured);

/// Mask-aware overload: masked entries are excluded from both numerator and
/// denominator. Identical to the matrix overload for a complete sweep.
Real impedance_misfit(const linalg::DenseMatrix& z_model, const mea::Measurement& measurement);

/// Runs log-space Levenberg-Marquardt; throws NumericalError if the normal
/// equations become singular (should not happen for positive damping).
InverseResult recover_resistances(const mea::Measurement& measurement,
                                  const InverseOptions& options = {});

}  // namespace parma::solver
