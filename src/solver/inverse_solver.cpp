#include "solver/inverse_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/require.hpp"
#include "equations/pair_system.hpp"
#include "linalg/dense_solve.hpp"
#include "linalg/iterative.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/log_conductance.hpp"

namespace parma::solver {
namespace {

// Forward sweep: model impedances and the dense log-space Jacobian
// J[p][e] = dZ_p/dR_e * R_e (rows = pairs, cols = resistors).
struct ForwardSweep {
  linalg::DenseMatrix z_model{1, 1};
  linalg::DenseMatrix jacobian{1, 1};
};

// Per-pair work is independent (the paper's fine-grained unit), so the sweep
// parallelizes over endpoint pairs; every pair writes disjoint rows, and the
// result is identical for any worker count.
ForwardSweep forward_sweep(const circuit::ResistanceGrid& grid, Real volts,
                           parallel::ThreadPool* pool) {
  const Index rows = grid.rows();
  const Index cols = grid.cols();
  const Index pairs = rows * cols;
  ForwardSweep sweep;
  sweep.z_model = linalg::DenseMatrix(rows, cols);
  sweep.jacobian = linalg::DenseMatrix(pairs, pairs);

  const auto solve_one = [&](Index p) {
    const Index i = p / cols;
    const Index j = p % cols;
    const equations::PairSolution pair = equations::solve_pair(grid, i, j, volts);
    sweep.z_model(i, j) = pair.z_model;
    const std::vector<Real> grad = equations::impedance_gradient(grid, pair);
    for (Index e = 0; e < pairs; ++e) {
      sweep.jacobian(p, e) = grad[static_cast<std::size_t>(e)] *
                             grid.flat()[static_cast<std::size_t>(e)];
    }
  };

  if (pool != nullptr) {
    parallel::ForOptions loop;
    loop.schedule = parallel::Schedule::kDynamic;
    loop.chunk = 4;
    parallel::parallel_for(*pool, 0, pairs, solve_one, loop);
  } else {
    for (Index p = 0; p < pairs; ++p) solve_one(p);
  }
  return sweep;
}

// Misfit of the starting grid, through `forward` (both solvers' forward
// models). A forward model that fails there, or a non-finite misfit, means a
// corrupt measurement: a NumericalError, before any iteration.
template <typename Forward>
Real initial_misfit(Forward&& forward) {
  Real misfit = std::numeric_limits<Real>::quiet_NaN();
  try {
    misfit = forward();
  } catch (const ContractError& e) {
    throw NumericalError(std::string("inverse solve: forward model failed on the "
                                     "initial guess (corrupt measurement?): ") +
                         e.what());
  }
  if (!std::isfinite(misfit)) {
    throw NumericalError("inverse solve: non-finite initial misfit (corrupt measurement?)");
  }
  return misfit;
}

Real max_abs(const std::vector<Real>& v) {
  Real largest = 0.0;
  for (const Real x : v) largest = std::max(largest, std::fabs(x));
  return largest;
}

// Newton-CG on u = ln c for unmasked, unweighted data (inverse_solver.hpp).
// Each pass factors the grounded Laplacian once and solves
// A delta = D_c (Z(c) - Z_meas) by Jacobi-preconditioned CG on the
// matrix-free operator. A Newton step within the step bound is backtracked
// on the misfit; a longer or rejected one gives way to Levenberg-Marquardt
// steps on the same operator. Serial, so the result does not depend on
// InverseOptions::workers.
InverseResult recover_newton_cg(const mea::Measurement& measurement,
                                const InverseOptions& options,
                                circuit::ResistanceGrid seed) {
  // No log-conductance moves by more than this in one step.
  constexpr Real kMaxLogStep = 2.0;
  const std::size_t pairs = seed.flat().size();
  InverseResult result;
  result.recovered = std::move(seed);

  std::optional<LogConductanceOperator> op;
  Real misfit = initial_misfit([&] {
    op.emplace(result.recovered);
    return impedance_misfit(op->z(), measurement);
  });
  result.misfit_history.push_back(misfit);

  linalg::CgWorkspace workspace;
  std::vector<Real> rhs(pairs);
  std::vector<Real> diag;
  std::vector<Real> step(pairs);
  Real lambda = options.initial_lambda;
  bool any_step = false;              // this pass tried a nonzero step
  bool any_finite_candidate = false;  // ... and one had a finite misfit

  const auto solve = [&](const auto& system, const std::vector<Real>& b) {
    linalg::IterativeOptions cg_options;
    cg_options.max_iterations = static_cast<Index>(pairs);
    // Inexact Newton: the forcing term tightens with the misfit.
    cg_options.tolerance = 1e-2 * std::min(Real{0.1}, misfit);
    linalg::IterativeResult cg = linalg::conjugate_gradient_with(system, b, cg_options, workspace);
    ++result.diagnostics.linear_solves;
    result.diagnostics.cg_iterations += cg.iterations;
    result.diagnostics.highest_rung = FallbackRung::kCg;
    return cg.x;
  };

  // Tries u + t delta for t = 1, 1/2, ..., 1/2^halvings and keeps the first
  // that lowers the misfit. A trial whose factorization breaks down is a
  // rejected step, exactly like a NaN misfit; it never ends the solve by
  // itself.
  const auto try_step = [&](const std::vector<Real>& delta, int halvings) {
    if (max_abs(delta) == 0.0) return false;
    any_step = true;
    Real scale = 1.0;
    for (int halving = 0; halving <= halvings; ++halving, scale *= 0.5) {
      circuit::ResistanceGrid candidate = result.recovered;
      for (std::size_t e = 0; e < pairs; ++e) candidate.flat()[e] *= std::exp(-scale * delta[e]);
      std::optional<LogConductanceOperator> trial;
      Real trial_misfit = std::numeric_limits<Real>::quiet_NaN();
      try {
        trial.emplace(candidate);
        trial_misfit = impedance_misfit(trial->z(), measurement);
      } catch (const ContractError&) {
      } catch (const NumericalError&) {
      }
      if (!std::isfinite(trial_misfit)) continue;
      any_finite_candidate = true;
      if (trial_misfit < misfit) {
        result.recovered = std::move(candidate);
        op = std::move(trial);
        misfit = trial_misfit;
        return true;
      }
    }
    return false;
  };

  for (Index iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    if (misfit <= options.tolerance) {
      result.converged = true;
      break;
    }

    const std::vector<Real>& c = op->conductance();
    bool rhs_finite = true;
    for (std::size_t e = 0; e < pairs; ++e) {
      rhs[e] = c[e] * (op->z().data()[e] - measurement.z.data()[e]);
      rhs_finite = rhs_finite && std::isfinite(rhs[e]);
    }
    if (!rhs_finite) {
      result.termination = TerminationReason::kNumericalBreakdown;
      break;
    }
    op->diagonal_into(diag);
    result.robust.condition_estimate =
        std::max(result.robust.condition_estimate, diagonal_condition_estimate(diag));

    any_step = false;
    any_finite_candidate = false;
    // The Newton step is a descent direction of the misfit, so within the
    // bound it is backtracked.
    const std::vector<Real> newton = solve(*op, rhs);
    bool accepted = max_abs(newton) <= kMaxLogStep && try_step(newton, 8);
    if (!accepted) {
      // A longer Newton step extrapolates the linearization too far: the data
      // may be unrealizable (no positive field reproduces it), and then some
      // c_e runs off towards 0 or infinity. Levenberg-Marquardt takes over
      // on the same operator, as LM does on the dense path: each entry
      // clamped to the bound, lambda growing on a rejected step. A large
      // lambda turns the step into the Marquardt-scaled gradient, whose
      // entries keep their signs under the clamp, so it still descends; a
      // scaled-down whole step would instead let the run-off entry freeze
      // every other one.
      for (std::size_t e = 0; e < pairs; ++e) rhs[e] /= c[e] * c[e];
      std::vector<Real> gradient;  // -J^T (Z - Z_meas)
      op->multiply_into(rhs, gradient);
      for (int attempt = 0; attempt < 8 && !accepted; ++attempt) {
        step = solve(DampedNormalOperator(*op, lambda), gradient);
        for (Real& d : step) d = std::clamp(d, -kMaxLogStep, kMaxLogStep);
        accepted = try_step(step, 0);
        lambda = accepted ? std::max(lambda * options.lambda_shrink, Real{1e-12})
                          : lambda * options.lambda_grow;
      }
    }
    result.misfit_history.push_back(misfit);
    if (!accepted) {
      // A zero step (CG made no progress) leaves nothing to try.
      result.termination = any_finite_candidate || !any_step
                               ? TerminationReason::kStalled
                               : TerminationReason::kNumericalBreakdown;
      break;
    }
  }

  result.final_misfit = misfit;
  result.converged = result.converged || misfit <= options.tolerance;
  result.diagnostics.converged = result.converged;
  if (result.converged) result.termination = TerminationReason::kToleranceReached;
  return result;
}

}  // namespace

Real impedance_misfit(const linalg::DenseMatrix& z_model,
                      const linalg::DenseMatrix& z_measured) {
  PARMA_REQUIRE(z_model.rows() == z_measured.rows() && z_model.cols() == z_measured.cols(),
                "impedance shapes differ");
  Real num = 0.0;
  Real den = 0.0;
  for (Index i = 0; i < z_model.rows(); ++i) {
    for (Index j = 0; j < z_model.cols(); ++j) {
      const Real d = z_model(i, j) - z_measured(i, j);
      num += d * d;
      den += z_measured(i, j) * z_measured(i, j);
    }
  }
  PARMA_REQUIRE(den > 0.0, "measured impedances are all zero");
  return std::sqrt(num / den);
}

Real impedance_misfit(const linalg::DenseMatrix& z_model,
                      const mea::Measurement& measurement) {
  if (mea::masked_entry_count(measurement) == 0) {
    return impedance_misfit(z_model, measurement.z);
  }
  PARMA_REQUIRE(z_model.rows() == measurement.z.rows() &&
                    z_model.cols() == measurement.z.cols(),
                "impedance shapes differ");
  Real num = 0.0;
  Real den = 0.0;
  for (Index i = 0; i < z_model.rows(); ++i) {
    for (Index j = 0; j < z_model.cols(); ++j) {
      if (!mea::entry_valid(measurement, i, j)) continue;
      const Real d = z_model(i, j) - measurement.z(i, j);
      num += d * d;
      den += measurement.z(i, j) * measurement.z(i, j);
    }
  }
  PARMA_REQUIRE(den > 0.0, "every unmasked measured impedance is zero");
  return std::sqrt(num / den);
}

Real InverseResult::max_relative_error(const circuit::ResistanceGrid& truth) const {
  PARMA_REQUIRE(truth.rows() == recovered.rows() && truth.cols() == recovered.cols(),
                "truth grid shape mismatch");
  Real worst = 0.0;
  for (std::size_t e = 0; e < truth.flat().size(); ++e) {
    worst = std::max(worst, std::abs(recovered.flat()[e] - truth.flat()[e]) /
                                std::abs(truth.flat()[e]));
  }
  return worst;
}

InverseResult recover_resistances(const mea::Measurement& measurement,
                                  const InverseOptions& options) {
  measurement.spec.validate();
  PARMA_REQUIRE(options.max_iterations >= 1, "need at least one iteration");
  const Index rows = measurement.spec.rows;
  const Index cols = measurement.spec.cols;
  const Index pairs = rows * cols;
  const Real volts = measurement.spec.drive_voltage;

  InverseResult result;
  result.recovered = circuit::ResistanceGrid(rows, cols);
  if (options.initial_grid.has_value()) {
    PARMA_REQUIRE(options.initial_grid->rows() == rows && options.initial_grid->cols() == cols,
                  "initial grid shape mismatch");
    result.recovered = *options.initial_grid;
    for (Real v : result.recovered.flat()) {
      PARMA_REQUIRE(v > 0.0, "initial grid must be positive");
    }
  } else {
    // Z(i, j) itself is a decent starting guess: it equals R_ij exactly when
    // every other resistor is infinite, and underestimates otherwise. Masked
    // entries (whose Z may be garbage or missing) get the mean of the nearest
    // valid neighbours instead (expanding Chebyshev rings, global mean as the
    // last resort). The fill matters beyond warm-starting: a masked pair's
    // terminal equations are gone, so its resistance sits in a weakly
    // constrained direction that the damped LM steps barely move -- a
    // spatially local fill is what keeps that direction near the truth.
    Real global_fill = 0.0;
    const Index masked_entries = mea::masked_entry_count(measurement);
    if (options.initial_resistance <= 0.0 && masked_entries > 0) {
      Real sum = 0.0;
      Index count = 0;
      for (Index i = 0; i < rows; ++i) {
        for (Index j = 0; j < cols; ++j) {
          if (!mea::entry_valid(measurement, i, j)) continue;
          sum += measurement.z(i, j);
          ++count;
        }
      }
      PARMA_REQUIRE(count > 0, "initial guess needs at least one unmasked entry");
      global_fill = sum / static_cast<Real>(count);
    }
    const auto local_fill = [&](Index i, Index j) {
      const Index max_radius = std::max(rows, cols);
      for (Index radius = 1; radius < max_radius; ++radius) {
        Real sum = 0.0;
        Index count = 0;
        for (Index di = -radius; di <= radius; ++di) {
          for (Index dj = -radius; dj <= radius; ++dj) {
            if (std::max(std::abs(di), std::abs(dj)) != radius) continue;
            const Index ni = i + di;
            const Index nj = j + dj;
            if (ni < 0 || ni >= rows || nj < 0 || nj >= cols) continue;
            if (!mea::entry_valid(measurement, ni, nj)) continue;
            sum += measurement.z(ni, nj);
            ++count;
          }
        }
        if (count > 0) return sum / static_cast<Real>(count);
      }
      return global_fill;
    };
    for (Index i = 0; i < rows; ++i) {
      for (Index j = 0; j < cols; ++j) {
        result.recovered.at(i, j) =
            options.initial_resistance > 0.0
                ? options.initial_resistance
                : (mea::entry_valid(measurement, i, j) ? measurement.z(i, j)
                                                       : local_fill(i, j));
        PARMA_REQUIRE(result.recovered.at(i, j) > 0.0, "initial guess must be positive");
      }
    }
  }

  PARMA_REQUIRE(options.workers >= 1, "need at least one worker");
  const Index masked = mea::masked_entry_count(measurement);
  const bool robust_on = options.robust.loss != RobustLoss::kNone;
  if (masked == 0 && !robust_on) {
    // Foster's theorem: the leverages c_e Z_e of the m n edges sum to
    // m + n - 1, so R ~ Z m n / (m + n - 1) on average. An explicit guess is
    // used as given.
    if (!options.initial_grid.has_value() && options.initial_resistance <= 0.0) {
      const Real foster = static_cast<Real>(pairs) / static_cast<Real>(rows + cols - 1);
      for (Real& v : result.recovered.flat()) v *= foster;
    }
    return recover_newton_cg(measurement, options, std::move(result.recovered));
  }

  std::unique_ptr<parallel::ThreadPool> pool;
  if (options.workers > 1) pool = std::make_unique<parallel::ThreadPool>(options.workers);

  const Real tuning = effective_tuning(options.robust);
  // LM always runs weighted: masked entries carry weight 0, IRLS multiplies
  // on top.
  result.robust.enabled = robust_on;
  result.robust.masked_entries = masked;

  // Flat {0, 1} mask weights (row-major pair index p = i * cols + j).
  std::vector<Real> mask_weight(static_cast<std::size_t>(pairs), Real{1.0});
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      if (!mea::entry_valid(measurement, i, j)) {
        mask_weight[static_cast<std::size_t>(i * cols + j)] = 0.0;
      }
    }
  }

  // Residual over the full pair grid; masked pairs pinned to zero so the
  // weighted products never touch their (possibly garbage) Z.
  const auto residual_of = [&](const linalg::DenseMatrix& z_model, std::vector<Real>& out) {
    out.resize(static_cast<std::size_t>(pairs));
    for (Index i = 0; i < rows; ++i) {
      for (Index j = 0; j < cols; ++j) {
        const std::size_t p = static_cast<std::size_t>(i * cols + j);
        out[p] = mask_weight[p] > 0.0 ? z_model(i, j) - measurement.z(i, j) : Real{0.0};
      }
    }
  };
  // Compacts a residual down to the unmasked entries (robust scale and cost
  // must not see the pinned zeros of masked pairs).
  const auto collect_valid = [&](const std::vector<Real>& residual, std::vector<Real>& out) {
    out.clear();
    for (std::size_t p = 0; p < residual.size(); ++p) {
      if (mask_weight[p] > 0.0) out.push_back(residual[p]);
    }
  };

  // MAP prior for masked solves: pins log R to the initial guess so the
  // data null space opened by the dropped entries cannot drift (see
  // InverseOptions::masked_prior_strength). Never active unmasked.
  const bool prior_on = masked > 0 && options.masked_prior_strength > 0.0;
  std::vector<Real> log_offset;  // accumulated log-space steps per resistor
  if (prior_on) log_offset.assign(static_cast<std::size_t>(pairs), Real{0.0});

  Real lambda = options.initial_lambda;
  ForwardSweep sweep;
  Real misfit = initial_misfit([&] {
    sweep = forward_sweep(result.recovered, volts, pool.get());
    return impedance_misfit(sweep.z_model, measurement);
  });
  result.misfit_history.push_back(misfit);

  std::vector<Real> residual;
  std::vector<Real> weights;         // combined mask x IRLS weight per pair
  std::vector<Real> valid_scratch;   // compacted residuals for scale/cost
  std::vector<Real> scale_scratch;   // robust_scale's nth_element workspace
  std::vector<Real> irls_weights;
  Real sigma = 0.0;
  // Scale floor, tightened after the first iteration to a fraction of the
  // initial sigma (see RobustOptions::min_scale_fraction).
  Real sigma_floor = options.robust.min_scale;
  bool sigma_floor_set = false;
  const auto floored_scale = [&](const std::vector<Real>& valid) {
    const Real raw = robust_scale(valid, scale_scratch, sigma_floor);
    if (!sigma_floor_set) {
      sigma_floor = std::max(sigma_floor, raw * options.robust.min_scale_fraction);
      sigma_floor_set = true;
    }
    return raw;
  };

  for (Index iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    if (misfit <= options.tolerance) {
      result.converged = true;
      break;
    }

    // Residual r_p = Z_model - Z_measured, normal equations in log-space:
    // (J^T W J + lambda diag) delta = -J^T (w o r).
    residual_of(sweep.z_model, residual);
    const linalg::DenseMatrix jt = sweep.jacobian.transpose();
    Real cost = 0.0;
    if (robust_on) {
      collect_valid(residual, valid_scratch);
      sigma = floored_scale(valid_scratch);
      result.robust.final_scale = sigma;
      result.robust.rows_downweighted =
          robust_weights(residual, sigma, options.robust.loss, tuning, irls_weights);
      cost = robust_cost(valid_scratch, sigma, options.robust.loss, tuning);
      weights.resize(static_cast<std::size_t>(pairs));
      for (std::size_t p = 0; p < weights.size(); ++p) {
        weights[p] = mask_weight[p] * irls_weights[p];
      }
    } else {
      weights = mask_weight;
    }
    linalg::DenseMatrix wj = sweep.jacobian;
    for (Index p = 0; p < pairs; ++p) {
      const Real w = weights[static_cast<std::size_t>(p)];
      for (Index e = 0; e < pairs; ++e) wj(p, e) *= w;
    }
    linalg::DenseMatrix jtj = jt.multiply(wj);
    std::vector<Real> wr(static_cast<std::size_t>(pairs));
    for (std::size_t p = 0; p < wr.size(); ++p) wr[p] = weights[p] * residual[p];
    std::vector<Real> rhs = jt.multiply(wr);
    for (Real& v : rhs) v = -v;
    if (prior_on) {
      // (J^T W J + mu^2 I) delta = -(J^T W r + mu^2 l), l = log(R / R_init).
      std::vector<Real> diag_copy(static_cast<std::size_t>(pairs));
      for (Index d = 0; d < pairs; ++d) diag_copy[static_cast<std::size_t>(d)] = jtj(d, d);
      std::nth_element(diag_copy.begin(), diag_copy.begin() + diag_copy.size() / 2,
                       diag_copy.end());
      const Real mu2 = options.masked_prior_strength * diag_copy[diag_copy.size() / 2];
      for (Index d = 0; d < pairs; ++d) {
        const std::size_t sd = static_cast<std::size_t>(d);
        jtj(d, d) += mu2;
        rhs[sd] -= mu2 * log_offset[sd];
      }
    }
    bool rhs_finite = true;
    for (Real v : rhs) {
      if (!std::isfinite(v)) { rhs_finite = false; break; }
    }
    if (!rhs_finite) {
      result.termination = TerminationReason::kNumericalBreakdown;
      break;
    }

    // Cheap conditioning proxy of the (weighted) normal matrix for the
    // quality report.
    std::vector<Real> diag(static_cast<std::size_t>(pairs));
    for (Index d = 0; d < pairs; ++d) diag[static_cast<std::size_t>(d)] = jtj(d, d);
    result.robust.condition_estimate =
        std::max(result.robust.condition_estimate, diagonal_condition_estimate(diag));

    bool accepted = false;
    bool any_finite_candidate = false;
    for (int attempt = 0; attempt < 8 && !accepted; ++attempt) {
      linalg::DenseMatrix damped = jtj;
      for (Index d = 0; d < pairs; ++d) {
        damped(d, d) += lambda * std::max(jtj(d, d), Real{1e-12});
      }
      std::vector<Real> delta;
      try {
        delta = linalg::solve_dense(damped, rhs);
        ++result.diagnostics.linear_solves;
      } catch (const NumericalError&) {
        lambda *= options.lambda_grow;
        continue;
      }

      // Apply in log-space with a trust-region style step clamp.
      circuit::ResistanceGrid candidate = result.recovered;
      std::vector<Real> candidate_offset = log_offset;
      for (Index e = 0; e < pairs; ++e) {
        const Real step = std::clamp(delta[static_cast<std::size_t>(e)], Real{-2.0}, Real{2.0});
        candidate.flat()[static_cast<std::size_t>(e)] *= std::exp(step);
        if (prior_on) candidate_offset[static_cast<std::size_t>(e)] += step;
      }
      // A forward model that breaks down at the candidate (roundoff driving a
      // nodal solve or the source-current contract under an extreme iterate)
      // is a rejected step, not a solver crash -- exactly like a NaN misfit.
      ForwardSweep candidate_sweep;
      Real candidate_misfit = std::numeric_limits<Real>::quiet_NaN();
      try {
        candidate_sweep = forward_sweep(candidate, volts, pool.get());
        candidate_misfit = impedance_misfit(candidate_sweep.z_model, measurement);
      } catch (const ContractError&) {
      } catch (const NumericalError&) {
      }
      if (std::isfinite(candidate_misfit)) any_finite_candidate = true;
      // NaN misfit (a poisoned forward solve) must count as a rejected step,
      // not slip through the comparison. With a robust loss active, descent is
      // judged by the robust cost at the frozen scale -- an outlier pair's
      // raw residual must not veto a good step.
      bool improves = false;
      if (std::isfinite(candidate_misfit)) {
        if (robust_on) {
          std::vector<Real> candidate_residual;
          residual_of(candidate_sweep.z_model, candidate_residual);
          collect_valid(candidate_residual, valid_scratch);
          improves = robust_cost(valid_scratch, sigma, options.robust.loss, tuning) < cost;
        } else {
          improves = candidate_misfit < misfit;
        }
      }
      if (improves) {
        result.recovered = std::move(candidate);
        if (prior_on) log_offset = std::move(candidate_offset);
        sweep = std::move(candidate_sweep);
        misfit = candidate_misfit;
        lambda = std::max(lambda * options.lambda_shrink, Real{1e-12});
        accepted = true;
      } else {
        lambda *= options.lambda_grow;
      }
    }
    result.misfit_history.push_back(misfit);
    if (!accepted) {
      // Stalled: LM cannot improve further. If no damped attempt even
      // produced a finite misfit, that is a numerical breakdown, not a stall.
      result.termination = any_finite_candidate ? TerminationReason::kStalled
                                                : TerminationReason::kNumericalBreakdown;
      break;
    }
  }

  result.final_misfit = misfit;
  result.converged = result.converged || misfit <= options.tolerance;
  result.diagnostics.converged = result.converged;
  if (result.converged) result.termination = TerminationReason::kToleranceReached;

  // Final outlier census at the converged state: entries whose IRLS weight
  // ended below 1/2 are the flagged suspects (flat i * cols + j indices).
  if (robust_on) {
    residual_of(sweep.z_model, residual);
    collect_valid(residual, valid_scratch);
    sigma = floored_scale(valid_scratch);
    result.robust.final_scale = sigma;
    result.robust.rows_downweighted =
        robust_weights(residual, sigma, options.robust.loss, tuning, irls_weights);
    result.robust.downweighted_entries.clear();
    for (Index p = 0; p < pairs; ++p) {
      const std::size_t sp = static_cast<std::size_t>(p);
      if (mask_weight[sp] > 0.0 && irls_weights[sp] < 0.5) {
        result.robust.downweighted_entries.push_back(p);
      }
    }
    result.robust.rows_downweighted =
        static_cast<Index>(result.robust.downweighted_entries.size());
  }
  return result;
}

}  // namespace parma::solver
