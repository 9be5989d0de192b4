// Tests for solver/system_kernels: the symbolic/numeric split of the
// Gauss-Newton hot path. The load-bearing claims are bit-identity claims:
//  * kernel-refreshed J and J^T J match the CooBuilder-built matrices bitwise;
//  * refreshes, residuals, and the initial guess are bit-identical across
//    serial/pooled/stealing backends and worker counts;
//  * the executor-backed CG operator matches the serial one bitwise;
//  * the workspace ladder's rungs match direct (ridged) CG bitwise;
//  * the full solve is bit-identical across backends.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/formation_cache.hpp"
#include "equations/generator.hpp"
#include "equations/residual.hpp"
#include "exec/executor.hpp"
#include "fault/injector.hpp"
#include "linalg/iterative.hpp"
#include "mea/generator.hpp"
#include "mea/measurement.hpp"
#include "solver/full_system_solver.hpp"
#include "solver/system_kernels.hpp"

namespace parma::solver {
namespace {

struct Scenario {
  mea::DeviceSpec spec;
  circuit::ResistanceGrid truth{1, 1};
  mea::Measurement measurement;
};

Scenario make_scenario(Index n, std::uint64_t seed, Index anomalies = 1) {
  Rng rng(seed);
  Scenario s{mea::square_device(n), circuit::ResistanceGrid(1, 1), {}};
  mea::GeneratorOptions options = mea::random_scenario(s.spec, anomalies, rng);
  options.jitter_fraction = 0.01;
  s.truth = mea::generate_field(s.spec, options, rng);
  s.measurement = mea::measure(s.spec, s.truth, mea::MeasurementOptions{}, rng);
  return s;
}

void expect_bitwise_equal(const linalg::CsrMatrix& a, const linalg::CsrMatrix& b,
                          const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(a.row_ptr(), b.row_ptr()) << what << ": row_ptr differs";
  ASSERT_EQ(a.col_idx(), b.col_idx()) << what << ": col_idx differs";
  ASSERT_EQ(a.values().size(), b.values().size()) << what;
  for (std::size_t k = 0; k < a.values().size(); ++k) {
    // Bitwise: == on doubles distinguishes everything except 0.0 vs -0.0,
    // which the accumulation-order argument covers anyway; a sign mismatch
    // there would be caught by the cross-path solve comparison.
    ASSERT_EQ(a.values()[k], b.values()[k]) << what << ": value slot " << k;
  }
}

void expect_bitwise_equal(const std::vector<Real>& a, const std::vector<Real>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << ": index " << i;
  }
}

TEST(SymbolicPattern, JacobianRefreshMatchesCooBuilder) {
  const Scenario s = make_scenario(4, 42);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  const std::vector<Real> x = initial_guess(system, s.measurement);

  SystemKernels kernels(system);
  kernels.refresh_jacobian(x);
  const linalg::CsrMatrix reference =
      equations::system_jacobian(system, x, linalg::ZeroPolicy::kKeep);
  expect_bitwise_equal(kernels.jacobian(), reference, "jacobian");
}

TEST(SymbolicPattern, NormalRefreshMatchesCooBuilderReference) {
  const Scenario s = make_scenario(4, 43);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  const std::vector<Real> x = initial_guess(system, s.measurement);

  SystemKernels kernels(system);
  kernels.refresh(x);
  const linalg::CsrMatrix reference =
      reference_normal_matrix(kernels.jacobian(), linalg::ZeroPolicy::kKeep);
  expect_bitwise_equal(kernels.normal(), reference, "normal");
}

TEST(SymbolicPattern, NormalHasStructuralDiagonal) {
  const Scenario s = make_scenario(3, 44);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  const auto symbolic = SystemSymbolic::analyze(system);
  ASSERT_EQ(static_cast<Index>(symbolic->a_diag_slot.size()), symbolic->cols);
  for (Index i = 0; i < symbolic->cols; ++i) {
    const Index slot = symbolic->a_diag_slot[static_cast<std::size_t>(i)];
    ASSERT_GE(slot, symbolic->a_row_ptr[static_cast<std::size_t>(i)]);
    ASSERT_LT(slot, symbolic->a_row_ptr[static_cast<std::size_t>(i) + 1]);
    EXPECT_EQ(symbolic->a_col_idx[static_cast<std::size_t>(slot)], i);
  }
}

TEST(SymbolicPattern, ResidualMatchesSystemResidual) {
  const Scenario s = make_scenario(4, 45);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  const std::vector<Real> x = initial_guess(system, s.measurement);

  SystemKernels kernels(system);
  std::vector<Real> r;
  kernels.residual_into(x, r);
  expect_bitwise_equal(r, equations::system_residual(system, x), "residual");
}

TEST(CrossBackend, RefreshAndResidualAreBitIdentical) {
  const Scenario s = make_scenario(4, 46);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  const std::vector<Real> x = initial_guess(system, s.measurement);

  SystemKernels serial_kernels(system);
  serial_kernels.refresh(x);
  std::vector<Real> serial_residual;
  serial_kernels.residual_into(x, serial_residual);

  for (const exec::Backend backend : {exec::Backend::kPooled, exec::Backend::kStealing}) {
    for (const Index workers : {Index{2}, Index{4}}) {
      const auto executor = exec::make_executor(backend, workers);
      SystemKernels kernels(system);
      kernels.refresh(x, executor.get());
      expect_bitwise_equal(kernels.jacobian(), serial_kernels.jacobian(), "jacobian");
      expect_bitwise_equal(kernels.normal(), serial_kernels.normal(), "normal");
      std::vector<Real> r;
      kernels.residual_into(x, r, executor.get());
      expect_bitwise_equal(r, serial_residual, "residual");
    }
  }
}

TEST(WorkspaceCg, MatchesAllocatingCgBitwise) {
  const Scenario s = make_scenario(4, 47);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  const std::vector<Real> x = initial_guess(system, s.measurement);
  const linalg::CsrMatrix jac = equations::system_jacobian(system, x);
  const linalg::CsrMatrix a = reference_normal_matrix(jac);
  std::vector<Real> b = jac.multiply_transpose(equations::system_residual(system, x));
  for (Real& v : b) v = -v;

  linalg::IterativeOptions options;
  options.max_iterations = 500;
  options.tolerance = 1e-12;
  const linalg::IterativeResult legacy = linalg::conjugate_gradient(a, b, options);

  linalg::CgWorkspace workspace;
  const linalg::IterativeResult ws_result = linalg::conjugate_gradient_with(
      linalg::SerialCsrOperator(a), b, options, workspace);
  EXPECT_EQ(ws_result.iterations, legacy.iterations);
  EXPECT_EQ(ws_result.converged, legacy.converged);
  EXPECT_EQ(ws_result.relative_residual, legacy.relative_residual);
  expect_bitwise_equal(ws_result.x, legacy.x, "cg iterate");

  // The executor-backed operator must land on the same bits (ordered
  // reductions, fixed SpMV row partition).
  const auto executor = exec::make_executor(exec::Backend::kStealing, 4);
  const linalg::IterativeResult par_result = linalg::conjugate_gradient_with(
      ParallelCsrOperator(a, executor.get()), b, options, workspace);
  EXPECT_EQ(par_result.iterations, legacy.iterations);
  expect_bitwise_equal(par_result.x, legacy.x, "parallel cg iterate");
}

TEST(WorkspaceLadder, CgRungMatchesDirectCgBitwise) {
  const Scenario s = make_scenario(4, 48);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  const std::vector<Real> x = initial_guess(system, s.measurement);
  const linalg::CsrMatrix jac = equations::system_jacobian(system, x);
  const linalg::CsrMatrix a = reference_normal_matrix(jac);
  std::vector<Real> b = jac.multiply_transpose(equations::system_residual(system, x));
  for (Real& v : b) v = -v;

  FallbackOptions options;
  options.cg.max_iterations = 500;
  options.cg.tolerance = 1e-12;

  const linalg::IterativeResult direct = linalg::conjugate_gradient(a, b, options.cg);
  ASSERT_TRUE(direct.converged);

  SolveDiagnostics diag;
  LadderWorkspace workspace;
  const std::vector<Real> ws = solve_with_fallback(a, b, options, diag, workspace);
  EXPECT_EQ(diag.highest_rung, FallbackRung::kCg);
  EXPECT_EQ(diag.cg_iterations, direct.iterations);
  expect_bitwise_equal(ws, direct.x, "ladder solution");
}

TEST(WorkspaceLadder, TikhonovRungMatchesRidgedCgBitwise) {
  const Scenario s = make_scenario(3, 49);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  const std::vector<Real> x = initial_guess(system, s.measurement);
  const linalg::CsrMatrix jac = equations::system_jacobian(system, x);
  const linalg::CsrMatrix a = reference_normal_matrix(jac);
  std::vector<Real> b = jac.multiply_transpose(equations::system_residual(system, x));
  for (Real& v : b) v = -v;

  FallbackOptions options;
  options.cg.max_iterations = 500;
  options.cg.tolerance = 1e-12;

  // Reference: CG on A + tau I (tau = tikhonov_scale * max |diag(A)|) at the
  // relaxed tolerance, warm-started from the failed rung 1's zero iterate.
  Real max_diag = 0.0;
  for (Real d : a.diagonal()) max_diag = std::max(max_diag, std::abs(d));
  const Real tau = std::max(options.tikhonov_scale * max_diag, Real{1e-300});
  linalg::CooBuilder builder(a.rows(), a.cols());
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index k = a.row_ptr()[static_cast<std::size_t>(r)];
         k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      builder.add(r, a.col_idx()[static_cast<std::size_t>(k)],
                  a.values()[static_cast<std::size_t>(k)]);
    }
  }
  for (Index d = 0; d < a.rows(); ++d) builder.add(d, d, tau);
  linalg::IterativeOptions relaxed = options.cg;
  relaxed.tolerance = options.cg.tolerance * options.tikhonov_tolerance_factor;
  const linalg::IterativeResult ridged = linalg::conjugate_gradient(
      builder.build(), b, relaxed, std::vector<Real>(b.size(), 0.0));
  ASSERT_TRUE(ridged.converged);

  // Force exactly one CG non-convergence: rung 1 fails, the ridged retry runs.
  SolveDiagnostics diag;
  LadderWorkspace workspace;
  std::vector<Real> ws;
  {
    fault::ScopedInjector chaos(49);
    chaos->arm(fault::Point::kCgNonConvergence, {.probability = 1.0, .max_fires = 1});
    ws = solve_with_fallback(a, b, options, diag, workspace);
  }
  ASSERT_EQ(diag.highest_rung, FallbackRung::kTikhonov);
  EXPECT_EQ(diag.tikhonov_retries, 1);
  EXPECT_EQ(diag.cg_iterations, ridged.iterations);
  expect_bitwise_equal(ws, ridged.x, "ridged ladder solution");
}

TEST(FullSystem, ParallelKernelPathMatchesSerialBitwise) {
  const Scenario s = make_scenario(4, 54);
  const equations::EquationSystem system = equations::generate_system(s.measurement);

  FullSystemOptions options;
  options.max_iterations = 12;
  const FullSystemResult serial = solve_full_system(system, s.measurement, options);

  for (const exec::Backend backend : {exec::Backend::kPooled, exec::Backend::kStealing}) {
    const auto executor = exec::make_executor(backend, 4);
    KernelContext context;
    context.executor = executor.get();
    const FullSystemResult parallel =
        solve_full_system(system, s.measurement, options, context);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    expect_bitwise_equal(parallel.unknowns, serial.unknowns, "parallel unknowns");
    expect_bitwise_equal(parallel.residual_history, serial.residual_history,
                         "parallel history");
  }
}

TEST(FullSystem, KernelPathRecoversGroundTruth) {
  const Scenario s = make_scenario(4, 55);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  FullSystemOptions options;
  options.max_iterations = 30;
  const FullSystemResult result = solve_full_system(system, s.measurement, options);
  Real worst = 0.0;
  for (std::size_t e = 0; e < s.truth.flat().size(); ++e) {
    worst = std::max(worst, std::abs(result.recovered.flat()[e] - s.truth.flat()[e]) /
                                std::abs(s.truth.flat()[e]));
  }
  EXPECT_LT(worst, 1e-3) << "rms " << result.final_residual_rms;
}

TEST(InitialGuess, ParallelPairSolvesAreBitIdentical) {
  const Scenario s = make_scenario(5, 56);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  const std::vector<Real> serial = initial_guess(system, s.measurement);
  for (const exec::Backend backend : {exec::Backend::kPooled, exec::Backend::kStealing}) {
    for (const Index workers : {Index{2}, Index{4}}) {
      const auto executor = exec::make_executor(backend, workers);
      const std::vector<Real> parallel = initial_guess(system, s.measurement, executor.get());
      expect_bitwise_equal(parallel, serial, "initial guess");
    }
  }
}

TEST(SharedSymbolic, KernelsAcceptCacheSharedStructure) {
  const Scenario s = make_scenario(3, 57);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  const auto symbolic = SystemSymbolic::analyze(system);

  SystemKernels own(system);                // analyzes internally
  SystemKernels shared(system, symbolic);   // reuses the cache's analysis
  const std::vector<Real> x = initial_guess(system, s.measurement);
  own.refresh(x);
  shared.refresh(x);
  expect_bitwise_equal(shared.jacobian(), own.jacobian(), "shared jacobian");
  expect_bitwise_equal(shared.normal(), own.normal(), "shared normal");
}

TEST(SharedSymbolic, FormationCacheSharesOneAnalysisPerShape) {
  const Scenario a = make_scenario(3, 58);
  const Scenario b = make_scenario(3, 59);  // same shape, different values
  const Scenario c = make_scenario(4, 60);  // different shape
  const equations::EquationSystem sys_a = equations::generate_system(a.measurement);
  const equations::EquationSystem sys_b = equations::generate_system(b.measurement);
  const equations::EquationSystem sys_c = equations::generate_system(c.measurement);

  core::FormationCache cache;
  const auto sym_a = cache.system_symbolic(sys_a);
  const auto sym_b = cache.system_symbolic(sys_b);
  const auto sym_c = cache.system_symbolic(sys_c);
  EXPECT_EQ(sym_a.get(), sym_b.get()) << "same shape must share the analysis";
  EXPECT_NE(sym_a.get(), sym_c.get());
  const core::FormationCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.symbolic_hits, 1u);
  EXPECT_EQ(stats.symbolic_misses, 2u);
}

}  // namespace
}  // namespace parma::solver
