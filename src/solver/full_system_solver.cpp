#include "solver/full_system_solver.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/require.hpp"
#include "equations/pair_system.hpp"
#include "exec/executor.hpp"

namespace parma::solver {
namespace {

Real residual_rms(const std::vector<Real>& r) {
  if (r.empty()) return 0.0;
  Real sum = 0.0;
  for (Real v : r) sum += v * v;
  return std::sqrt(sum / static_cast<Real>(r.size()));
}

bool all_finite(const std::vector<Real>& v) {
  for (Real x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// Measurement entries whose terminal (Z-consuming) equations ended the solve
// at IRLS weight < 0.5 -- the flagged outlier candidates, one flat index
// (i * cols + j) per entry.
std::vector<Index> flag_downweighted_entries(const equations::EquationSystem& system,
                                             const std::vector<Real>& weights) {
  std::vector<Index> entries;
  const Index cols = system.layout.cols();
  for (std::size_t row = 0; row < system.equations.size(); ++row) {
    const auto& eq = system.equations[row];
    const bool terminal = eq.category == equations::ConstraintCategory::kSource ||
                          eq.category == equations::ConstraintCategory::kDestination;
    if (terminal && weights[row] < 0.5) {
      entries.push_back(eq.pair_i * cols + eq.pair_j);
    }
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  return entries;
}

// One endpoint pair per chunk: each per-pair solve is a full linear system,
// coarse enough to schedule individually.
constexpr Index kPairChunk = 1;

}  // namespace

FullSystemResult solve_full_system(const equations::EquationSystem& system,
                                   const mea::Measurement& measurement,
                                   const FullSystemOptions& options) {
  return solve_full_system(system, measurement, options, KernelContext{});
}

// Each Gauss-Newton iteration refreshes J, J^T J and the residual in place
// through the symbolic/numeric kernels and solves the step through the
// workspace ladder with the block-Jacobi preconditioner.
FullSystemResult solve_full_system(const equations::EquationSystem& system,
                                   const mea::Measurement& measurement,
                                   const FullSystemOptions& options,
                                   const KernelContext& context) {
  const auto& layout = system.layout;
  exec::Executor* executor = context.executor;
  FullSystemResult result;
  result.unknowns = initial_guess(system, measurement, executor);

  SystemKernels kernels(system, context.symbolic);
  std::vector<Real> residual;
  kernels.residual_into(result.unknowns, residual, executor);
  Real rms = residual_rms(residual);
  PARMA_REQUIRE(std::isfinite(rms), "full-system solve started from a non-finite residual");
  result.residual_history.push_back(rms);

  FallbackOptions ladder;
  ladder.cg.max_iterations = options.cg_max_iterations;
  ladder.cg.tolerance = options.cg_tolerance;
  ladder.tikhonov_scale = options.tikhonov_scale;
  ladder.tikhonov_tolerance_factor = options.tikhonov_tolerance_factor;
  LadderWorkspace workspace;
  workspace.executor = executor;
  workspace.padded = &kernels.padded_normal();

  // Block-Jacobi over the shape-shared symbolic plan, numeric-refreshed from
  // J^T J every iteration below.
  linalg::BlockJacobiPreconditioner precond(kernels.symbolic().block_plan);
  ladder.preconditioner = &precond;

  // IRLS state (robust loss only); the robust-off iteration touches none of
  // it and stays bit-identical to the pre-robust solver.
  const bool robust_on = options.robust.loss != RobustLoss::kNone;
  const Real tuning = effective_tuning(options.robust);
  result.robust.enabled = robust_on;
  result.robust.masked_entries = mea::masked_entry_count(measurement);

  // Buffers outliving the loop: no per-iteration reallocation.
  std::vector<Real> rhs;
  std::vector<Real> candidate;
  std::vector<Real> candidate_residual;
  std::vector<Real> weights;
  std::vector<Real> weighted_residual;
  std::vector<Real> scale_scratch;
  std::vector<Real> a_diag(static_cast<std::size_t>(kernels.symbolic().cols));
  Real sigma = 0.0;  ///< robust scale of the current iterate
  Real cost = 0.0;   ///< robust acceptance metric at sigma
  // Scale floor, tightened after the first iteration to a fraction of the
  // initial sigma -- guards against MAD collapse once the inliers fit almost
  // exactly (RobustOptions::min_scale_fraction).
  Real sigma_floor = options.robust.min_scale;
  bool sigma_floor_set = false;
  const auto floored_scale = [&](const std::vector<Real>& r) {
    const Real raw = robust_scale(r, scale_scratch, sigma_floor);
    if (!sigma_floor_set) {
      sigma_floor = std::max(sigma_floor, raw * options.robust.min_scale_fraction);
      sigma_floor_set = true;
    }
    return raw;
  };

  for (Index iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    if (rms <= options.tolerance) {
      result.converged = true;
      break;
    }
    kernels.refresh_jacobian(result.unknowns, executor);
    if (robust_on) {
      // Re-estimate the scale and weights at the current iterate; the normal
      // equations become J^T W J delta = -J^T W r (weights numeric-only, the
      // symbolic pattern and chunking untouched).
      sigma = floored_scale(residual);
      result.robust.final_scale = sigma;
      result.robust.rows_downweighted =
          robust_weights(residual, sigma, options.robust.loss, tuning, weights);
      cost = robust_cost(residual, sigma, options.robust.loss, tuning);
      kernels.refresh_normal_weighted(weights, executor);
      precond.refresh(kernels.normal());
      weighted_residual.resize(residual.size());
      for (std::size_t e = 0; e < residual.size(); ++e) {
        weighted_residual[e] = weights[e] * residual[e];
      }
      kernels.jacobian().multiply_transpose_into(weighted_residual, rhs);
    } else {
      kernels.refresh_normal(executor);
      precond.refresh(kernels.normal());
      kernels.jacobian().multiply_transpose_into(residual, rhs);
    }
    for (Real& v : rhs) v = -v;
    // Conditioning guardrails: abort on a poisoned gradient instead of
    // iterating on garbage, and record the cheap diagonal condition estimate
    // of J^T W J for the quality report.
    if (!all_finite(rhs)) {
      result.termination = TerminationReason::kNumericalBreakdown;
      break;
    }
    {
      const auto& avals = kernels.normal().values();
      const auto& diag_slot = kernels.symbolic().a_diag_slot;
      for (std::size_t i = 0; i < diag_slot.size(); ++i) {
        a_diag[i] = avals[static_cast<std::size_t>(diag_slot[i])];
      }
      result.robust.condition_estimate =
          std::max(result.robust.condition_estimate, diagonal_condition_estimate(a_diag));
    }

    const std::vector<Real> step =
        solve_with_fallback(kernels.normal(), rhs, ladder, result.diagnostics, workspace);

    candidate = result.unknowns;
    for (std::size_t u = 0; u < candidate.size(); ++u) {
      Real delta = step[u];
      const Real scale = std::max(std::abs(candidate[u]), Real{1e-6});
      delta = std::clamp(delta, -options.step_clamp * scale, options.step_clamp * scale);
      candidate[u] += delta;
      if (layout.is_resistance(static_cast<Index>(u)) && candidate[u] <= 0.0) {
        candidate[u] = 0.5 * scale;  // project back into the feasible region
      }
    }
    kernels.residual_into(candidate, candidate_residual, executor);
    const Real candidate_rms = residual_rms(candidate_residual);
    if (!std::isfinite(candidate_rms)) {
      result.termination = TerminationReason::kNumericalBreakdown;
      break;
    }
    if (robust_on) {
      // Step acceptance under the robust objective at the CURRENT sigma: an
      // outlier blowing up its residual must not veto a step that improves
      // the consensus fit.
      const Real candidate_cost =
          robust_cost(candidate_residual, sigma, options.robust.loss, tuning);
      if (!(candidate_cost < cost)) {
        result.termination = TerminationReason::kStalled;
        break;
      }
    } else if (candidate_rms >= rms) {
      result.termination = TerminationReason::kStalled;
      break;
    }
    std::swap(result.unknowns, candidate);
    std::swap(residual, candidate_residual);
    rms = candidate_rms;
    result.residual_history.push_back(rms);
  }

  result.final_residual_rms = rms;
  result.converged = result.converged || rms <= options.tolerance;
  if (result.converged) result.termination = TerminationReason::kToleranceReached;
  result.diagnostics.converged = result.converged;
  if (robust_on) {
    // Final per-entry diagnostics: which measurements the converged fit
    // considers outliers (terminal-equation weight < 0.5 at the final
    // iterate).
    sigma = floored_scale(residual);
    result.robust.final_scale = sigma;
    result.robust.rows_downweighted =
        robust_weights(residual, sigma, options.robust.loss, tuning, weights);
    result.robust.downweighted_entries = flag_downweighted_entries(system, weights);
  }
  result.recovered = circuit::ResistanceGrid(layout.rows(), layout.cols());
  for (Index e = 0; e < layout.num_resistors(); ++e) {
    result.recovered.flat()[static_cast<std::size_t>(e)] =
        result.unknowns[static_cast<std::size_t>(e)];
  }
  return result;
}

std::vector<Real> initial_guess(const equations::EquationSystem& system,
                                const mea::Measurement& measurement,
                                exec::Executor* executor) {
  const auto& layout = system.layout;
  circuit::ResistanceGrid guess(layout.rows(), layout.cols());
  // Masked entries carry no trustworthy Z (possibly a NaN placeholder); seed
  // them with the mean of the measured ones. A complete sweep never computes
  // the fill and takes exactly the historical R = Z assignment.
  Real fill = 0.0;
  if (mea::masked_entry_count(measurement) > 0) {
    Real sum = 0.0;
    Index count = 0;
    for (Index i = 0; i < layout.rows(); ++i) {
      for (Index j = 0; j < layout.cols(); ++j) {
        if (!mea::entry_valid(measurement, i, j)) continue;
        sum += measurement.z(i, j);
        ++count;
      }
    }
    PARMA_REQUIRE(count > 0, "initial guess needs at least one unmasked entry");
    fill = sum / static_cast<Real>(count);
  }
  for (Index i = 0; i < layout.rows(); ++i) {
    for (Index j = 0; j < layout.cols(); ++j) {
      guess.at(i, j) = mea::entry_valid(measurement, i, j) ? measurement.z(i, j) : fill;
    }
  }
  std::vector<Real> x(static_cast<std::size_t>(layout.num_unknowns()), 0.0);
  for (Index e = 0; e < layout.num_resistors(); ++e) {
    x[static_cast<std::size_t>(e)] = guess.flat()[static_cast<std::size_t>(e)];
  }
  // The per-pair solves are independent and write disjoint slots of x (the
  // ua/ub blocks of their own pair), so any chunking / backend gives
  // bit-identical results.
  const Index pairs = layout.rows() * layout.cols();
  const auto solve_pairs = [&](Index lo, Index hi) {
    for (Index p = lo; p < hi; ++p) {
      const Index i = p / layout.cols();
      const Index j = p % layout.cols();
      const equations::PairSolution pair =
          equations::solve_pair(guess, i, j, measurement.spec.drive_voltage);
      for (Index k = 0; k < layout.cols(); ++k) {
        if (k == j) continue;
        x[static_cast<std::size_t>(layout.ua_index(i, j, k))] = pair.vertical_potential(k);
      }
      for (Index m = 0; m < layout.rows(); ++m) {
        if (m == i) continue;
        x[static_cast<std::size_t>(layout.ub_index(i, j, m))] = pair.horizontal_potential(m);
      }
    }
  };
  if (executor == nullptr) {
    solve_pairs(0, pairs);
  } else {
    executor->submit_bulk(0, pairs, kPairChunk, solve_pairs);
  }
  return x;
}

}  // namespace parma::solver
