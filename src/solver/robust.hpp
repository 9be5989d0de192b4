// Robust estimation layered on the Levenberg-Marquardt loop: iteratively-
// reweighted least squares (IRLS) with Huber or Tukey weights.
//
// Per outer iteration the solver computes the unweighted residual r, a robust
// scale sigma = 1.4826 * median |r_e| (the MAD estimate, consistent for a
// Gaussian core), and per-row weights w_e = psi(r_e / sigma) / (r_e / sigma).
// The normal equations become J^T W J delta = -J^T W r. With
// RobustLoss::kNone no weight is ever computed and the plain least-squares
// path is bit-identical to the pre-robust solver.
//
// Also home to the typed termination taxonomy (so a non-finite residual or
// step surfaces as kNumericalBreakdown instead of burning max-iterations) and
// the cheap diagonal condition estimate the solvers report.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace parma::solver {

enum class RobustLoss {
  kNone,   ///< plain least squares (bit-identical to the legacy solver)
  kHuber,  ///< quadratic core, linear tails; weights k/|u| beyond k
  kTukey,  ///< redescending biweight; outliers beyond c get weight 0
};

const char* robust_loss_name(RobustLoss loss);

struct RobustOptions {
  RobustLoss loss = RobustLoss::kNone;
  /// Tuning constant in scale units; 0 selects the textbook 95%-efficiency
  /// default (1.345 for Huber, 4.685 for Tukey).
  Real tuning = 0.0;
  /// Floor for the robust scale, so an (almost) exactly-fitting system does
  /// not divide by zero and declare everything an outlier.
  Real min_scale = 1e-12;
  /// Relative floor: sigma never drops below this fraction of the FIRST
  /// iteration's scale. Guards against MAD collapse when the clean majority
  /// fits (nearly) exactly -- e.g. the square per-pair LM system, where the
  /// inliers interpolate and a collapsed sigma would turn numerical noise
  /// into "outliers" and destabilize the reweighting.
  Real min_scale_fraction = 1e-6;
};

/// The tuning constant in effect (resolves the 0 = default convention).
[[nodiscard]] Real effective_tuning(const RobustOptions& options);

/// Why the outer GN/LM iteration stopped.
enum class TerminationReason {
  kToleranceReached,    ///< converged below the residual tolerance
  kMaxIterations,       ///< iteration budget exhausted while still improving
  kStalled,             ///< no acceptable step found (finite but not better)
  kNumericalBreakdown,  ///< non-finite residual/step: aborted, not iterated on
};

const char* termination_reason_name(TerminationReason reason);

/// Per-solve robust-estimation diagnostics, surfaced end-to-end
/// (solver result -> serve::ParametrizeResult::quality -> serve::Stats).
struct RobustReport {
  bool enabled = false;            ///< a robust loss was active
  Real final_scale = 0.0;          ///< last robust scale sigma
  Index rows_downweighted = 0;     ///< residual rows with final weight < 1
  /// Measurement entries (flat i * cols + j) whose terminal equations ended
  /// the solve at weight < 0.5 -- the flagged outlier candidates.
  std::vector<Index> downweighted_entries;
  Real condition_estimate = 0.0;   ///< worst diagonal condition proxy seen
  Index masked_entries = 0;        ///< entries excluded by the mask
};

/// Robust scale sigma = 1.4826 * median |r_e|, floored at min_scale.
/// `scratch` avoids a per-call allocation (resized to residual.size()).
[[nodiscard]] Real robust_scale(const std::vector<Real>& residual,
                                std::vector<Real>& scratch, Real min_scale);

/// Fills `weights` with w_e = psi(r_e / sigma) / (r_e / sigma) for the given
/// loss; returns the number of rows with weight < 1. kNone fills ones.
Index robust_weights(const std::vector<Real>& residual, Real scale, RobustLoss loss,
                     Real tuning, std::vector<Real>& weights);

/// Robust objective sum_e rho(r_e / sigma) at fixed sigma (the step-acceptance
/// metric of the IRLS outer loop; compares candidates under ONE sigma).
[[nodiscard]] Real robust_cost(const std::vector<Real>& residual, Real scale,
                               RobustLoss loss, Real tuning);

/// Cheap condition proxy of a (near-)SPD matrix from its diagonal:
/// max diag / min positive diag. A lower bound on the true spectral condition
/// number -- cheap enough for every iteration, and large exactly when the
/// normal equations are heading toward singularity. Returns +inf when
/// the diagonal has non-positive or non-finite entries.
[[nodiscard]] Real diagonal_condition_estimate(const std::vector<Real>& diag);

}  // namespace parma::solver
