// The MEA inverse problem: recover the resistance grid R from the measured
// pairwise impedances Z (paper Section II-C).
//
// Both solvers work in log-space, which enforces R > 0 -- the paper notes
// "resistance cannot be non-positive values" -- and evens out the
// 2,000-11,000 kOhm dynamic range. recover_resistances picks one from the
// input:
//
//   - Unmasked, unweighted data (no masked entry, RobustLoss::kNone) runs
//     Newton-CG on u = ln c, c = 1/R. Each Z is a two-point effective
//     resistance of the weighted K_{m,n}, so one factorization of the
//     grounded Laplacian gives every Z(c) and a matrix-free Jacobian product
//     in O((m+n) m n) (solver/log_conductance.hpp). Each Newton step solves
//     the square SPD system A delta = D_c (Z(c) - Z_meas) by Jacobi PCG,
//     stopped at relative residual 1e-2 min(0.1, misfit). A step that moves
//     no log-conductance by more than 2 is halved up to 8 times until the
//     misfit drops. A longer or rejected one gives way to LM steps on the
//     same matrix-free operator (J^T J = A D_c^-2 A, solved by CG), each
//     entry clamped to +-2 and the damping grown until one lowers the misfit,
//     so data no positive field reproduces still gets a least-squares fit.
//     The default seed is Z scaled by Foster's factor m n / (m + n - 1).
//   - Masked or IRLS-weighted data runs Levenberg-Marquardt on theta = ln R,
//     seeded at Z, with the exact adjoint gradient dZ/dR = (i_branch / I)^2
//     from equations/pair_system.hpp: one forward sweep of per-pair solves
//     yields the dense n^2 x n^2 Jacobian, and each damped normal system is
//     one dense solve.
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
  /// LM damping: start, factor on an accepted step, factor on a rejected
  /// one. Newton-CG uses them for the damped steps it falls back to.
  Real initial_lambda = 1e-3;
  Real lambda_shrink = 0.3;
  Real lambda_grow = 4.0;
  /// Uniform starting guess. 0 means "use Z(i, j)", scaled by Foster's
  /// factor m n / (m + n - 1) on the Newton-CG path.
  Real initial_resistance = 0.0;

  /// Worker threads for LM's forward sweeps (per-pair nodal solves are the
  /// independent units the topology exposes; they dominate each LM
  /// iteration). 1 = serial. Newton-CG runs serially and ignores it. Results
  /// are bit-identical for any worker count.
  Index workers = 1;

  /// Warm start: a full starting grid (e.g. the previous epoch's recovery in
  /// the 0/6/12/24-hour campaigns). Takes precedence over
  /// `initial_resistance`; must match the device shape and be positive.
  std::optional<circuit::ResistanceGrid> initial_grid;

  /// IRLS robust loss over the per-pair impedance residuals (robust.hpp);
  /// any loss but kNone runs LM. With kNone a masked solve runs the
  /// pre-robust LM bit for bit, and an unmasked one runs Newton-CG. Masked
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
  /// Linear-solve counts. Newton-CG: linear_solves counts its CG solves (one
  /// per Newton step, plus one per damped step it falls back to),
  /// cg_iterations all their CG iterations, highest_rung is kCg. LM: every
  /// damped normal-equation solve is one direct dense solve (linear_solves)
  /// and no CG runs.
  SolveDiagnostics diagnostics;
  /// Why the loop stopped; a non-finite misfit on every trial step reports
  /// kNumericalBreakdown instead of looking like a stall.
  TerminationReason termination = TerminationReason::kMaxIterations;
  /// Robust-estimation diagnostics (final scale, flagged outlier entries,
  /// condition estimate, masked-entry count). Newton-CG's condition estimate
  /// is the worst diagonal_condition_estimate of c^2 Z^2 it met.
  RobustReport robust;

  /// Max relative error against a known ground truth (test/diagnostic).
  [[nodiscard]] Real max_relative_error(const circuit::ResistanceGrid& truth) const;
};

/// Relative RMS misfit between a model's Z and the measurement's Z.
Real impedance_misfit(const linalg::DenseMatrix& z_model, const linalg::DenseMatrix& z_measured);

/// Mask-aware overload: masked entries are excluded from both numerator and
/// denominator. Identical to the matrix overload for a complete sweep.
Real impedance_misfit(const linalg::DenseMatrix& z_model, const mea::Measurement& measurement);

/// Recovers R by Newton-CG (unmasked, unweighted data) or LM (masked or
/// IRLS), as the header comment describes. Throws ContractError on bad
/// options or a non-positive (or NaN) starting guess, and NumericalError when
/// the initial misfit is not finite; a breakdown after that ends the solve
/// with a typed termination instead.
InverseResult recover_resistances(const mea::Measurement& measurement,
                                  const InverseOptions& options = {});

}  // namespace parma::solver
