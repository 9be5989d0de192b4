// Tests for src/solver: inverse recovery (Newton-CG on log-conductance for
// unmasked data, log-space LM otherwise), the matrix-free Newton operator,
// and the full-system Gauss-Newton, against known ground truth.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "circuit/crossbar.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "equations/generator.hpp"
#include "equations/pair_system.hpp"
#include "linalg/vector_ops.hpp"
#include "mea/generator.hpp"
#include "mea/measurement.hpp"
#include "solver/full_system_solver.hpp"
#include "solver/inverse_solver.hpp"
#include "solver/log_conductance.hpp"

namespace parma::solver {
namespace {

struct Scenario {
  mea::DeviceSpec spec;
  circuit::ResistanceGrid truth{1, 1};
  mea::Measurement measurement;
};

Scenario make_scenario(const mea::DeviceSpec& spec, std::uint64_t seed, Index anomalies = 1,
                       Real noise = 0.0) {
  Rng rng(seed);
  Scenario s{spec, circuit::ResistanceGrid(1, 1), {}};
  mea::GeneratorOptions options = mea::random_scenario(spec, anomalies, rng);
  options.jitter_fraction = 0.01;
  s.truth = mea::generate_field(spec, options, rng);
  mea::MeasurementOptions mopt;
  mopt.noise_fraction = noise;
  s.measurement = mea::measure(spec, s.truth, mopt, rng);
  return s;
}

std::vector<Real> unit_vector(std::size_t size, std::size_t k) {
  std::vector<Real> e(size, 0.0);
  e[k] = 1.0;
  return e;
}

class ExactRecovery : public ::testing::TestWithParam<Index> {};

TEST_P(ExactRecovery, RecoversGroundTruthFromExactMeasurements) {
  const Index n = GetParam();
  const Scenario s = make_scenario(mea::square_device(n), 100 + static_cast<std::uint64_t>(n));
  InverseOptions options;
  options.max_iterations = 80;
  options.tolerance = 1e-10;
  const InverseResult result = recover_resistances(s.measurement, options);
  EXPECT_TRUE(result.converged) << "misfit " << result.final_misfit;
  EXPECT_LT(result.max_relative_error(s.truth), 1e-4)
      << "n=" << n << " misfit=" << result.final_misfit;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExactRecovery, ::testing::Values(2, 3, 4, 5, 6));

TEST(Recovery, MisfitHistoryIsMonotoneNonIncreasing) {
  const Scenario s = make_scenario(mea::square_device(4), 123);
  const InverseResult result = recover_resistances(s.measurement);
  ASSERT_GE(result.misfit_history.size(), 2u);
  for (std::size_t k = 1; k < result.misfit_history.size(); ++k) {
    EXPECT_LE(result.misfit_history[k], result.misfit_history[k - 1] + 1e-15);
  }
}

TEST(Recovery, NoisyMeasurementsDegradeGracefully) {
  const Scenario s = make_scenario(mea::square_device(4), 124, 1, 0.01);
  InverseOptions options;
  options.max_iterations = 60;
  const InverseResult result = recover_resistances(s.measurement, options);
  // Cannot fit below the noise floor, but must stay in its vicinity.
  EXPECT_LT(result.final_misfit, 0.05);
  EXPECT_LT(result.max_relative_error(s.truth), 0.5);
}

TEST(Recovery, RecoveredValuesStayPositive) {
  const Scenario s = make_scenario(mea::square_device(5), 125, 2);
  const InverseResult result = recover_resistances(s.measurement);
  for (Real v : result.recovered.flat()) EXPECT_GT(v, 0.0);
}

TEST(Recovery, AnomalyCellsAreLocalized) {
  // Plant a strong anomaly; the recovered field must rank that cell highest.
  Rng rng(126);
  const mea::DeviceSpec spec = mea::square_device(5);
  mea::GeneratorOptions options;
  options.jitter_fraction = 0.0;
  options.anomalies.push_back({3.0, 1.0, 0.7, 0.7, 11000.0});
  const auto truth = mea::generate_field(spec, options, rng);
  const mea::Measurement m = mea::measure_exact(spec, truth);
  const InverseResult result = recover_resistances(m);
  Index argmax = 0;
  for (Index e = 1; e < 25; ++e) {
    if (result.recovered.flat()[static_cast<std::size_t>(e)] >
        result.recovered.flat()[static_cast<std::size_t>(argmax)]) {
      argmax = e;
    }
  }
  EXPECT_EQ(argmax, 3 * 5 + 1);
}

TEST(Recovery, ExplicitInitialGuessIsHonored) {
  const Scenario s = make_scenario(mea::square_device(3), 127);
  InverseOptions options;
  options.initial_resistance = 5000.0;
  options.max_iterations = 80;
  options.tolerance = 1e-10;
  const InverseResult result = recover_resistances(s.measurement, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.max_relative_error(s.truth), 1e-3);
}

TEST(Recovery, RejectsBadOptions) {
  const Scenario s = make_scenario(mea::square_device(3), 128);
  InverseOptions options;
  options.max_iterations = 0;
  EXPECT_THROW(recover_resistances(s.measurement, options), ContractError);
}

TEST(Recovery, WarmStartConvergesFaster) {
  // The time-series workflow: epoch t's recovery seeds epoch t+1. A warm
  // start from (a slightly perturbed) truth must need fewer iterations than
  // the cold Z-based guess.
  const Scenario s = make_scenario(mea::square_device(5), 150);
  InverseOptions cold;
  cold.max_iterations = 60;
  cold.tolerance = 1e-9;
  const InverseResult from_cold = recover_resistances(s.measurement, cold);

  InverseOptions warm = cold;
  circuit::ResistanceGrid near_truth = s.truth;
  for (Real& v : near_truth.flat()) v *= 1.02;
  warm.initial_grid = near_truth;
  const InverseResult from_warm = recover_resistances(s.measurement, warm);

  EXPECT_TRUE(from_warm.converged);
  EXPECT_LT(from_warm.iterations, from_cold.iterations);
  EXPECT_LT(from_warm.max_relative_error(s.truth), 1e-3);
}

TEST(Recovery, WarmStartValidatesShapeAndPositivity) {
  const Scenario s = make_scenario(mea::square_device(3), 151);
  InverseOptions options;
  options.initial_grid = circuit::ResistanceGrid(4, 4, 1000.0);  // wrong shape
  EXPECT_THROW(recover_resistances(s.measurement, options), ContractError);
  circuit::ResistanceGrid negative(3, 3, 1000.0);
  negative.at(1, 1) = -5.0;
  options.initial_grid = negative;
  EXPECT_THROW(recover_resistances(s.measurement, options), ContractError);
}

TEST(Recovery, ParallelSweepsAreBitIdenticalToSerial) {
  // The per-pair forward solves are independent; with any worker count the
  // recovery must be exactly the same (determinism is a release criterion).
  const Scenario s = make_scenario(mea::square_device(4), 140);
  InverseOptions serial;
  serial.max_iterations = 20;
  InverseOptions threaded = serial;
  threaded.workers = 4;
  const InverseResult a = recover_resistances(s.measurement, serial);
  const InverseResult b = recover_resistances(s.measurement, threaded);
  ASSERT_EQ(a.recovered.flat().size(), b.recovered.flat().size());
  for (std::size_t e = 0; e < a.recovered.flat().size(); ++e) {
    EXPECT_DOUBLE_EQ(a.recovered.flat()[e], b.recovered.flat()[e]);
  }
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_DOUBLE_EQ(a.final_misfit, b.final_misfit);
}

// --- The Newton operator A = D_c (M o M) D_c -----------------------------------

// Central differences of Z along u_k = ln c_k: A e_k = -c o dZ/du_k.
void expect_matches_finite_differences(Index n, std::uint64_t seed) {
  const Scenario s = make_scenario(mea::square_device(n), seed, 2);
  const LogConductanceOperator op(s.truth);
  const std::size_t pairs = s.truth.flat().size();
  const Real h = 1e-4;
  for (std::size_t k : {std::size_t{0}, pairs / 3, pairs - 1}) {
    std::vector<Real> product;
    op.multiply_into(unit_vector(pairs, k), product);
    circuit::ResistanceGrid up = s.truth;
    circuit::ResistanceGrid down = s.truth;
    up.flat()[k] *= std::exp(-h);  // u_k + h
    down.flat()[k] *= std::exp(h);
    const linalg::DenseMatrix z_up = circuit::measure_all_pairs(up);
    const linalg::DenseMatrix z_down = circuit::measure_all_pairs(down);
    std::vector<Real> diff(pairs);
    for (std::size_t e = 0; e < pairs; ++e) {
      const Real fd = -op.conductance()[e] * (z_up.data()[e] - z_down.data()[e]) / (2.0 * h);
      diff[e] = product[e] - fd;
    }
    EXPECT_LE(linalg::norm2(diff), 1e-6 * linalg::norm2(product))
        << "n=" << n << " column " << k;
  }
}

TEST(LogConductanceOperator, ProductMatchesCentralDifferences) {
  expect_matches_finite_differences(8, 301);
  expect_matches_finite_differences(20, 302);
}

// A = D_c J, with J[p][e] = dZ_p/dR_e * R_e the per-pair log-space Jacobian
// row LM assembles from equations::impedance_gradient.
void expect_columns_match_lm_jacobian(const mea::DeviceSpec& spec, std::uint64_t seed) {
  const Scenario s = make_scenario(spec, seed, 1);
  const circuit::ResistanceGrid& grid = s.truth;
  const LogConductanceOperator op(grid);
  const Index pairs = spec.rows * spec.cols;
  linalg::DenseMatrix jacobian(pairs, pairs);
  for (Index p = 0; p < pairs; ++p) {
    const equations::PairSolution pair =
        equations::solve_pair(grid, p / spec.cols, p % spec.cols, spec.drive_voltage);
    const std::vector<Real> grad = equations::impedance_gradient(grid, pair);
    for (Index e = 0; e < pairs; ++e) {
      jacobian(p, e) = grad[static_cast<std::size_t>(e)] * grid.flat()[static_cast<std::size_t>(e)];
    }
  }
  for (Index k = 0; k < pairs; ++k) {
    std::vector<Real> column;
    op.multiply_into(unit_vector(static_cast<std::size_t>(pairs), static_cast<std::size_t>(k)),
                     column);
    Real scale = 0.0;
    Real worst = 0.0;
    for (Index p = 0; p < pairs; ++p) {
      const Real expected = op.conductance()[static_cast<std::size_t>(p)] * jacobian(p, k);
      scale = std::max(scale, std::abs(expected));
      worst = std::max(worst, std::abs(column[static_cast<std::size_t>(p)] - expected));
    }
    EXPECT_LE(worst, 1e-10 * scale)
        << spec.rows << "x" << spec.cols << " column " << k;
  }
}

TEST(LogConductanceOperator, ColumnsEqualScaledLmJacobian) {
  for (Index n = 4; n <= 10; ++n) {
    expect_columns_match_lm_jacobian(mea::square_device(n), 310 + static_cast<std::uint64_t>(n));
  }
  expect_columns_match_lm_jacobian(mea::DeviceSpec{3, 7}, 321);
}

TEST(LogConductanceOperator, IsSymmetricAndDiagonalIsLeverageSquared) {
  const Scenario s = make_scenario(mea::DeviceSpec{6, 9}, 330, 2);
  const LogConductanceOperator op(s.truth);
  const std::size_t pairs = s.truth.flat().size();
  Rng rng(331);
  std::vector<Real> x(pairs);
  std::vector<Real> y(pairs);
  for (std::size_t e = 0; e < pairs; ++e) {
    x[e] = rng.normal(0.0, 1.0);
    y[e] = rng.normal(0.0, 1.0);
  }
  std::vector<Real> ax;
  std::vector<Real> ay;
  op.multiply_into(x, ax);
  op.multiply_into(y, ay);
  const Real x_ay = linalg::dot(x, ay);
  const Real y_ax = linalg::dot(y, ax);
  EXPECT_NEAR(x_ay, y_ax, 1e-12 * linalg::norm2(x) * linalg::norm2(ay));

  std::vector<Real> diag;
  op.diagonal_into(diag);
  for (std::size_t k = 0; k < pairs; ++k) {
    std::vector<Real> column;
    op.multiply_into(unit_vector(pairs, k), column);
    EXPECT_NEAR(column[k], diag[k], 1e-10 * diag[k]) << "entry " << k;
  }
}

TEST(LogConductanceOperator, RejectsNonPositiveResistance) {
  circuit::ResistanceGrid grid(3, 3, 1000.0);
  grid.at(1, 2) = 0.0;
  EXPECT_THROW(LogConductanceOperator{grid}, ContractError);
}

// --- Exact-data accuracy gate ------------------------------------------------

// Default options, exact measurements: every solve converges and lands on the
// truth. The n >= 38 sizes are where damped LM stalled.
class ExactDataGate : public ::testing::TestWithParam<std::tuple<Index, std::uint64_t>> {};

TEST_P(ExactDataGate, ConvergesToTruthWithDefaultOptions) {
  const auto [n, seed] = GetParam();
  const Scenario s = make_scenario(mea::square_device(n), seed, 2);
  const InverseResult result = recover_resistances(s.measurement);
  EXPECT_TRUE(result.converged) << "misfit " << result.final_misfit;
  EXPECT_EQ(result.termination, TerminationReason::kToleranceReached);
  EXPECT_LE(result.max_relative_error(s.truth), 1e-5) << "n=" << n << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, ExactDataGate,
    ::testing::Combine(::testing::Values(8, 16, 24, 32, 40, 48),
                       ::testing::Values(std::uint64_t{7}, std::uint64_t{11},
                                         std::uint64_t{13})),
    [](const ::testing::TestParamInfo<ExactDataGate::ParamType>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

void expect_large_device_recovers(const mea::DeviceSpec& spec, std::uint64_t seed) {
  const Scenario s = make_scenario(spec, seed, 3);
  const InverseResult result = recover_resistances(s.measurement);
  EXPECT_TRUE(result.converged) << "misfit " << result.final_misfit;
  EXPECT_LE(result.max_relative_error(s.truth), 1e-4) << spec.rows << "x" << spec.cols;
}

TEST(ExactDataGateLarge, WetLabDevice64) {
  expect_large_device_recovers(mea::square_device(64), 64);
}

TEST(ExactDataGateLarge, Device100) {
  expect_large_device_recovers(mea::square_device(100), 100);
}

TEST(ExactDataGateLarge, Rectangular12x20) {
  expect_large_device_recovers(mea::DeviceSpec{12, 20}, 1220);
}

// --- Newton-CG result semantics ----------------------------------------------

TEST(NewtonCg, ReportsCgWorkAndLeverageConditioning) {
  const Scenario s = make_scenario(mea::square_device(8), 340, 2);
  const InverseResult result = recover_resistances(s.measurement);
  ASSERT_TRUE(result.converged);
  // One Newton step per accepted pass; the last pass only checks the misfit.
  EXPECT_EQ(result.diagnostics.linear_solves, result.iterations - 1);
  EXPECT_GE(result.diagnostics.cg_iterations, result.diagnostics.linear_solves);
  EXPECT_EQ(result.diagnostics.highest_rung, FallbackRung::kCg);
  EXPECT_TRUE(result.diagnostics.converged);
  EXPECT_EQ(result.misfit_history.size(), static_cast<std::size_t>(result.iterations));
  EXPECT_GT(result.robust.condition_estimate, 1.0);
  EXPECT_TRUE(std::isfinite(result.robust.condition_estimate));
  EXPECT_FALSE(result.robust.enabled);
}

// x25 outliers that no positive field reproduces: the Newton step runs off
// the bound, and the damped steps that take over still lower the misfit on
// every accepted pass instead of stopping at the seed.
TEST(NewtonCg, UnrealizableDataStillLowersTheMisfit) {
  Scenario s = make_scenario(mea::square_device(8), 342, 2);
  for (const auto& [i, j] : {std::pair{1, 2}, std::pair{4, 6}, std::pair{6, 0}}) {
    s.measurement.z(i, j) *= 25.0;
  }
  const InverseResult result = recover_resistances(s.measurement);
  EXPECT_FALSE(result.converged);
  EXPECT_NE(result.termination, TerminationReason::kToleranceReached);
  EXPECT_GT(result.diagnostics.linear_solves, result.iterations);
  const std::vector<Real>& history = result.misfit_history;
  ASSERT_GE(history.size(), 3u);
  // Every pass but a final rejected one strictly lowers the misfit.
  for (std::size_t k = 1; k + 1 < history.size(); ++k) {
    EXPECT_LT(history[k], history[k - 1]) << "pass " << k;
  }
  EXPECT_LE(history.back(), history[history.size() - 2]);
  EXPECT_LT(result.final_misfit, 0.9 * history.front());
}

TEST(NewtonCg, SeedGuardsStayTyped) {
  Scenario s = make_scenario(mea::square_device(4), 341);
  mea::Measurement nan_seed = s.measurement;
  nan_seed.z(1, 1) = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_THROW(recover_resistances(nan_seed), ContractError);
  mea::Measurement negative_seed = s.measurement;
  negative_seed.z(0, 2) = -negative_seed.z(0, 2);
  EXPECT_THROW(recover_resistances(negative_seed), ContractError);
  mea::Measurement infinite = s.measurement;
  infinite.z(2, 3) = std::numeric_limits<Real>::infinity();
  EXPECT_THROW(recover_resistances(infinite), NumericalError);
}

TEST(Misfit, ZeroForIdenticalMatrices) {
  linalg::DenseMatrix a{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(impedance_misfit(a, a), 0.0);
}

TEST(Misfit, ScalesWithPerturbation) {
  linalg::DenseMatrix a{{100.0}};
  linalg::DenseMatrix b{{110.0}};
  EXPECT_NEAR(impedance_misfit(b, a), 0.1, 1e-12);
}

// --- Full-system Gauss-Newton ------------------------------------------------

TEST(FullSystem, InitialGuessIsFeasibleAndStructured) {
  const Scenario s = make_scenario(mea::square_device(3), 129);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  const std::vector<Real> x0 = initial_guess(system, s.measurement);
  ASSERT_EQ(static_cast<Index>(x0.size()), system.layout.num_unknowns());
  for (Index u = 0; u < system.layout.num_resistors(); ++u) {
    EXPECT_GT(x0[static_cast<std::size_t>(u)], 0.0);
  }
  // Voltage guesses must lie within the rails.
  for (Index u = system.layout.num_resistors(); u < system.layout.num_unknowns(); ++u) {
    EXPECT_GE(x0[static_cast<std::size_t>(u)], 0.0);
    EXPECT_LE(x0[static_cast<std::size_t>(u)], kWetLabVoltage);
  }
}

class FullSystemRecovery : public ::testing::TestWithParam<Index> {};

TEST_P(FullSystemRecovery, DrivesResidualDownAndRecoversR) {
  const Index n = GetParam();
  const Scenario s = make_scenario(mea::square_device(n), 130 + static_cast<std::uint64_t>(n));
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  FullSystemOptions options;
  options.max_iterations = 60;
  const FullSystemResult result = solve_full_system(system, s.measurement, options);
  ASSERT_GE(result.residual_history.size(), 2u);
  EXPECT_LT(result.final_residual_rms, result.residual_history.front() * 1e-3);
  // The recovered grid must be close to truth (residual metric is currents,
  // so allow a looser relative bound than the LM path).
  Real worst = 0.0;
  for (std::size_t e = 0; e < s.truth.flat().size(); ++e) {
    worst = std::max(worst, std::abs(result.recovered.flat()[e] - s.truth.flat()[e]) /
                                s.truth.flat()[e]);
  }
  EXPECT_LT(worst, 0.02) << "n=" << n << " rms=" << result.final_residual_rms;
}

INSTANTIATE_TEST_SUITE_P(Sizes, FullSystemRecovery, ::testing::Values(2, 3, 4));

TEST(FullSystem, AgreesWithLevenbergMarquardt) {
  const Scenario s = make_scenario(mea::square_device(3), 131);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  FullSystemOptions fopt;
  fopt.max_iterations = 60;
  const FullSystemResult full = solve_full_system(system, s.measurement, fopt);
  InverseOptions iopt;
  iopt.max_iterations = 80;
  iopt.tolerance = 1e-12;
  const InverseResult lm = recover_resistances(s.measurement, iopt);
  for (std::size_t e = 0; e < s.truth.flat().size(); ++e) {
    EXPECT_NEAR(full.recovered.flat()[e], lm.recovered.flat()[e],
                0.02 * lm.recovered.flat()[e]);
  }
}

}  // namespace
}  // namespace parma::solver
