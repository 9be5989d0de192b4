// Tests for the preconditioned solve path: linalg/preconditioner (identity,
// block-Jacobi), the SIMD-friendly PaddedCsrChunks SpMV, and the
// solver-layer wiring (the SystemSymbolic block plan, the preconditioned
// fallback ladder, the full-system solve). The load-bearing claims are
// bit-identity contracts:
//  * the identity preconditioner reproduces plain CG bit for bit;
//  * the sparse-plan block-Jacobi refresh matches the dense refresh bitwise;
//  * the padded-chunk SpMV matches CsrMatrix::multiply_rows_into bitwise on
//    every backend;
//  * the preconditioned ladder's rung-1 exit is bit-identical to calling
//    preconditioned CG directly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "equations/generator.hpp"
#include "exec/executor.hpp"
#include "linalg/dense_solve.hpp"
#include "linalg/iterative.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sparse_matrix.hpp"
#include "mea/generator.hpp"
#include "mea/measurement.hpp"
#include "solver/fallback.hpp"
#include "solver/full_system_solver.hpp"
#include "solver/system_kernels.hpp"

namespace parma {
namespace {

using linalg::CooBuilder;
using linalg::CsrMatrix;

void expect_bitwise_equal(const std::vector<Real>& a, const std::vector<Real>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t ba = 0;
    std::uint64_t bb = 0;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    ASSERT_EQ(ba, bb) << what << " diverges at " << i << ": " << a[i] << " vs " << b[i];
  }
}

// Sparse SPD test matrix: a diagonally-dominant band matrix with random
// couplings, symmetric by construction, every diagonal structurally present.
CsrMatrix random_sparse_spd(Index n, Index bandwidth, Rng& rng, Real diag_boost = 0.0) {
  CooBuilder builder(n, n);
  std::vector<Real> row_sum(static_cast<std::size_t>(n), 0.0);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < std::min(n, i + bandwidth + 1); ++j) {
      const Real v = rng.uniform(-1.0, 1.0);
      builder.add(i, j, v);
      builder.add(j, i, v);
      row_sum[static_cast<std::size_t>(i)] += std::abs(v);
      row_sum[static_cast<std::size_t>(j)] += std::abs(v);
    }
  }
  for (Index i = 0; i < n; ++i) {
    builder.add(i, i, row_sum[static_cast<std::size_t>(i)] + 1.0 + diag_boost +
                          rng.uniform(0.0, 1.0));
  }
  return builder.build(linalg::ZeroPolicy::kKeep);
}

std::vector<Real> random_vector(Index n, Rng& rng) {
  std::vector<Real> v(static_cast<std::size_t>(n));
  for (Real& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

linalg::DenseMatrix densify(const CsrMatrix& a) {
  linalg::DenseMatrix dense(a.rows(), a.cols());
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index k = a.row_ptr()[static_cast<std::size_t>(r)];
         k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      dense(r, a.col_idx()[static_cast<std::size_t>(k)]) =
          a.values()[static_cast<std::size_t>(k)];
    }
  }
  return dense;
}

// ------------------------------------------------------------ Jacobi seam

TEST(JacobiSeam, IdentityMatchesPlainCgOnUnitDiagonal) {
  // With A_ii = 1 the inline-Jacobi scaling is exactly 1.0 * r, i.e. plain
  // CG; the identity preconditioner must follow the same trajectory bitwise.
  Rng rng(102);
  CsrMatrix a = random_sparse_spd(48, 3, rng);
  {
    // Normalize to a unit diagonal: D^-1/2 A D^-1/2 stays SPD.
    const std::vector<Real> diag = a.diagonal();
    auto& values = a.values_mut();
    for (Index r = 0; r < a.rows(); ++r) {
      for (Index k = a.row_ptr()[static_cast<std::size_t>(r)];
           k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
        const Index c = a.col_idx()[static_cast<std::size_t>(k)];
        // Pin the diagonal to EXACTLY 1.0 (sqrt(d) * sqrt(d) != d in floating
        // point): the inline-Jacobi scaling must be the literal identity.
        values[static_cast<std::size_t>(k)] =
            (c == r) ? Real{1.0}
                     : values[static_cast<std::size_t>(k)] /
                           (std::sqrt(diag[static_cast<std::size_t>(r)]) *
                            std::sqrt(diag[static_cast<std::size_t>(c)]));
      }
    }
  }
  const std::vector<Real> b = random_vector(a.rows(), rng);
  const linalg::SerialCsrOperator op(a);
  linalg::IterativeOptions options;
  options.tolerance = 1e-12;

  linalg::CgWorkspace ws_null;
  const linalg::IterativeResult plain =
      linalg::conjugate_gradient_with(op, b, options, ws_null);

  const linalg::IdentityPreconditioner identity;
  linalg::CgWorkspace ws_id;
  const linalg::IterativeResult with_identity =
      linalg::conjugate_gradient_with(op, b, options, ws_id, &identity);

  EXPECT_TRUE(plain.converged);
  EXPECT_EQ(with_identity.iterations, plain.iterations);
  expect_bitwise_equal(with_identity.x, plain.x, "identity = plain CG");
}

// ------------------------------------------------------------ block-Jacobi

TEST(BlockJacobi, AppliesExactBlockInverse) {
  // On a block-diagonal matrix, M = A: apply() must reproduce the dense
  // solve per block (up to factorization roundoff) and PCG must converge in
  // O(1) iterations.
  Rng rng(103);
  const Index block = 5;
  const Index blocks = 6;
  const Index n = block * blocks;
  CooBuilder builder(n, n);
  for (Index b = 0; b < blocks; ++b) {
    const Index lo = b * block;
    linalg::DenseMatrix m(block, block);
    for (Index i = 0; i < block; ++i) {
      for (Index j = 0; j < block; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
    }
    const linalg::DenseMatrix spd = m.multiply(m.transpose());
    for (Index i = 0; i < block; ++i) {
      for (Index j = 0; j < block; ++j) {
        builder.add(lo + i, lo + j, spd(i, j) + (i == j ? block : 0));
      }
    }
  }
  const CsrMatrix a = builder.build(linalg::ZeroPolicy::kKeep);

  std::vector<Index> block_ptr;
  for (Index b = 0; b <= blocks; ++b) block_ptr.push_back(b * block);
  auto plan = linalg::BlockJacobiPreconditioner::Plan::analyze(block_ptr, a.row_ptr(),
                                                               a.col_idx());
  linalg::BlockJacobiPreconditioner precond(plan);
  precond.refresh(a);
  EXPECT_EQ(precond.fallback_blocks(), 0);

  const std::vector<Real> r = random_vector(n, rng);
  std::vector<Real> z;
  precond.apply(r, z);
  const std::vector<Real> expect = linalg::solve_dense(densify(a), r);
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(z[static_cast<std::size_t>(i)], expect[static_cast<std::size_t>(i)], 1e-9);
  }

  linalg::IterativeOptions options;
  options.tolerance = 1e-12;
  linalg::CgWorkspace ws;
  const linalg::IterativeResult result = linalg::conjugate_gradient_with(
      linalg::SerialCsrOperator(a), r, options, ws, &precond);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 3);
}

TEST(BlockJacobi, SparsePlanMatchesDenseRefreshBitwise) {
  Rng rng(104);
  const CsrMatrix a = random_sparse_spd(60, 6, rng);
  std::vector<Index> block_ptr{0, 12, 24, 36, 48, 60};

  linalg::BlockJacobiPreconditioner sparse(linalg::BlockJacobiPreconditioner::Plan::analyze(
      block_ptr, a.row_ptr(), a.col_idx()));
  sparse.refresh(a);

  linalg::BlockJacobiPreconditioner dense(block_ptr);
  dense.refresh(densify(a));

  const std::vector<Real> r = random_vector(a.rows(), rng);
  std::vector<Real> z_sparse;
  std::vector<Real> z_dense;
  sparse.apply(r, z_sparse);
  dense.apply(r, z_dense);
  expect_bitwise_equal(z_sparse, z_dense, "sparse-plan vs dense refresh");
}

TEST(BlockJacobi, BreakdownFallsBackToDiagonal) {
  // One zero block breaks its Cholesky; the preconditioner must degrade to
  // the guarded diagonal (z = r on zero diagonals) instead of poisoning z.
  CooBuilder builder(4, 4);
  builder.add(0, 0, 4.0);
  builder.add(1, 1, 0.0);  // explicit structural zero
  builder.add(2, 2, 9.0);
  builder.add(3, 3, 16.0);
  const CsrMatrix a = builder.build(linalg::ZeroPolicy::kKeep);
  linalg::BlockJacobiPreconditioner precond(linalg::BlockJacobiPreconditioner::Plan::analyze(
      {0, 2, 4}, a.row_ptr(), a.col_idx()));
  precond.refresh(a);
  EXPECT_EQ(precond.fallback_blocks(), 1);

  std::vector<Real> z;
  precond.apply({4.0, 7.0, 9.0, 32.0}, z);
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);  // guarded inverse of the zero diagonal is 1
  EXPECT_DOUBLE_EQ(z[2], 1.0);
  EXPECT_DOUBLE_EQ(z[3], 2.0);
}

// ------------------------------------------------------- padded-chunk SpMV

TEST(PaddedCsr, MultiplyMatchesCsrBitwise) {
  Rng rng(107);
  const CsrMatrix a = random_sparse_spd(100, 7, rng);
  const linalg::PaddedCsrChunks padded(a, 16);
  const std::vector<Real> x = random_vector(a.cols(), rng);

  std::vector<Real> y_csr(static_cast<std::size_t>(a.rows()), 0.0);
  std::vector<Real> y_padded(static_cast<std::size_t>(a.rows()), 0.0);
  // Exercise chunk-interior and chunk-crossing ranges.
  for (const auto& range : std::vector<std::pair<Index, Index>>{
           {0, a.rows()}, {0, 16}, {16, 32}, {5, 27}, {90, 100}}) {
    a.multiply_rows_into(x, y_csr, range.first, range.second);
    padded.multiply_rows_into(x, y_padded, range.first, range.second);
    expect_bitwise_equal(y_padded, y_csr, "padded SpMV");
  }
}

TEST(PaddedCsr, ChunkRefreshTracksValueChanges) {
  Rng rng(108);
  CsrMatrix a = random_sparse_spd(64, 5, rng);
  linalg::PaddedCsrChunks padded(a, 16);
  for (Real& v : a.values_mut()) v *= 2.0;
  for (Index c = 0; c < padded.chunk_count(); ++c) padded.refresh_chunk_values(a, c);

  const std::vector<Real> x = random_vector(a.cols(), rng);
  std::vector<Real> y_csr(static_cast<std::size_t>(a.rows()), 0.0);
  std::vector<Real> y_padded(static_cast<std::size_t>(a.rows()), 0.0);
  a.multiply_rows_into(x, y_csr, 0, a.rows());
  padded.multiply_rows_into(x, y_padded, 0, a.rows());
  expect_bitwise_equal(y_padded, y_csr, "padded SpMV after chunk refresh");
}

// ------------------------------------------------------- fallback ladder

TEST(Ladder, PreconditionedRungOneIsBitIdenticalToDirectCg) {
  Rng rng(111);
  const CsrMatrix a = random_sparse_spd(60, 6, rng);
  const std::vector<Real> b = random_vector(a.rows(), rng);
  std::vector<Index> block_ptr{0, 15, 30, 45, 60};
  linalg::BlockJacobiPreconditioner precond(linalg::BlockJacobiPreconditioner::Plan::analyze(
      block_ptr, a.row_ptr(), a.col_idx()));
  precond.refresh(a);

  solver::FallbackOptions options;
  options.cg.tolerance = 1e-12;
  options.preconditioner = &precond;

  solver::SolveDiagnostics diagnostics;
  solver::LadderWorkspace workspace;
  const std::vector<Real> ladder =
      solver::solve_with_fallback(a, b, options, diagnostics, workspace);
  EXPECT_EQ(diagnostics.highest_rung, solver::FallbackRung::kCg);
  EXPECT_EQ(diagnostics.tikhonov_retries, 0);

  linalg::CgWorkspace ws;
  const linalg::IterativeResult direct = linalg::conjugate_gradient_with(
      solver::ParallelCsrOperator(a, nullptr), b, options.cg, ws, &precond);
  ASSERT_TRUE(direct.converged);
  EXPECT_EQ(diagnostics.cg_iterations, direct.iterations);
  expect_bitwise_equal(ladder, direct.x, "preconditioned ladder rung 1");
}

// ------------------------------------------------- solver-layer wiring

struct Scenario {
  mea::DeviceSpec spec;
  circuit::ResistanceGrid truth{1, 1};
  mea::Measurement measurement;
};

Scenario make_scenario(Index n, std::uint64_t seed) {
  Rng rng(seed);
  Scenario s{mea::square_device(n), circuit::ResistanceGrid(1, 1), {}};
  mea::GeneratorOptions options = mea::random_scenario(s.spec, /*anomalies=*/1, rng);
  options.jitter_fraction = 0.01;
  s.truth = mea::generate_field(s.spec, options, rng);
  s.measurement = mea::measure(s.spec, s.truth, mea::MeasurementOptions{}, rng);
  return s;
}

TEST(SymbolicPlans, AnalyzeBuildsPreconditionerPlans) {
  const Scenario s = make_scenario(4, 201);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  const auto symbolic = solver::SystemSymbolic::analyze(system);
  ASSERT_NE(symbolic->block_plan, nullptr);
  EXPECT_EQ(symbolic->block_plan->block_ptr.front(), 0);
  EXPECT_EQ(symbolic->block_plan->block_ptr.back(), symbolic->cols);
}

TEST(FullSystemPreconditioned, BlockJacobiRecoversAndCutsIterations) {
  const Scenario s = make_scenario(5, 206);
  const equations::EquationSystem system = equations::generate_system(s.measurement);

  solver::FullSystemOptions options;
  options.max_iterations = 20;
  const solver::FullSystemResult result =
      solver::solve_full_system(system, s.measurement, options);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.diagnostics.highest_rung, solver::FallbackRung::kCg);

  // The iteration-reduction claim on the first Gauss-Newton step's normal
  // system: block-Jacobi needs strictly fewer CG iterations than both inline
  // Jacobi and unpreconditioned CG.
  solver::SystemKernels kernels(system);
  const std::vector<Real> x0 = solver::initial_guess(system, s.measurement);
  kernels.refresh(x0);
  std::vector<Real> residual;
  kernels.residual_into(x0, residual);
  std::vector<Real> rhs;
  kernels.jacobian().multiply_transpose_into(residual, rhs);
  for (Real& v : rhs) v = -v;

  linalg::IterativeOptions cg;
  cg.max_iterations = 2000;
  cg.tolerance = 1e-12;
  const linalg::SerialCsrOperator op(kernels.normal());
  linalg::BlockJacobiPreconditioner block(kernels.symbolic().block_plan);
  block.refresh(kernels.normal());
  const linalg::IdentityPreconditioner identity;
  linalg::CgWorkspace ws;
  const linalg::IterativeResult with_block =
      linalg::conjugate_gradient_with(op, rhs, cg, ws, &block);
  const linalg::IterativeResult with_jacobi = linalg::conjugate_gradient_with(op, rhs, cg, ws);
  const linalg::IterativeResult plain =
      linalg::conjugate_gradient_with(op, rhs, cg, ws, &identity);
  for (const auto* r : {&with_block, &with_jacobi, &plain}) EXPECT_TRUE(r->converged);
  EXPECT_LT(with_block.iterations, with_jacobi.iterations);
  EXPECT_LT(with_block.iterations, plain.iterations);
}

TEST(FullSystemPreconditioned, BlockJacobiIsBitIdenticalAcrossBackends) {
  // The preconditioned + padded-SpMV hot path must keep the cross-backend
  // bit-identity contract (ordered reductions, fixed chunks, serial apply).
  const Scenario s = make_scenario(4, 207);
  const equations::EquationSystem system = equations::generate_system(s.measurement);
  solver::FullSystemOptions options;
  options.max_iterations = 12;

  const solver::FullSystemResult serial = solver::solve_full_system(system, s.measurement,
                                                                    options);
  for (const exec::Backend backend : {exec::Backend::kPooled, exec::Backend::kStealing}) {
    const auto executor = exec::make_executor(backend, 4);
    solver::KernelContext context;
    context.executor = executor.get();
    const solver::FullSystemResult parallel =
        solver::solve_full_system(system, s.measurement, options, context);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    expect_bitwise_equal(parallel.unknowns, serial.unknowns, "preconditioned backends");
    expect_bitwise_equal(parallel.residual_history, serial.residual_history,
                         "preconditioned history");
  }
}

}  // namespace
}  // namespace parma
