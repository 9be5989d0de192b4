// Tests for src/linalg: dense/sparse matrices, direct and iterative solvers,
// Laplacians and effective resistance.
#include <gtest/gtest.h>

#include <cmath>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/dense_solve.hpp"
#include "linalg/iterative.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace parma::linalg {
namespace {

DenseMatrix random_spd(Index n, Rng& rng) {
  // A = B B^T + n I is SPD for any B.
  DenseMatrix b(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  }
  DenseMatrix a = b.multiply(b.transpose());
  for (Index i = 0; i < n; ++i) a(i, i) += static_cast<Real>(n);
  return a;
}

TEST(VectorOps, DotAxpyNorm) {
  std::vector<Real> a{1, 2, 3};
  std::vector<Real> b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(norm2({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf({-7, 2}), 7.0);
  axpy(2.0, a, b);
  EXPECT_DOUBLE_EQ(b[0], 6.0);
  EXPECT_DOUBLE_EQ(b[2], 12.0);
  EXPECT_THROW(dot(a, {1.0}), ContractError);
}

TEST(VectorOps, RelativeError) {
  EXPECT_NEAR(relative_error({1.0, 0.0}, {1.0, 0.0}), 0.0, 1e-15);
  EXPECT_NEAR(relative_error({1.1, 0.0}, {1.0, 0.0}), 0.1, 1e-12);
}

TEST(DenseMatrix, InitializerListAndIndexing) {
  DenseMatrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
}

TEST(DenseMatrix, MultiplyAndTranspose) {
  DenseMatrix a{{1, 2}, {3, 4}};
  const std::vector<Real> ones{1, 1};
  const std::vector<Real> y = a.multiply(ones);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  const std::vector<Real> yt = a.multiply_transpose(ones);
  EXPECT_DOUBLE_EQ(yt[0], 4.0);
  EXPECT_DOUBLE_EQ(yt[1], 6.0);
  const DenseMatrix at = a.transpose();
  EXPECT_DOUBLE_EQ(at(0, 1), 3.0);
}

TEST(DenseMatrix, MatmulAgainstIdentity) {
  DenseMatrix a{{1, 2}, {3, 4}};
  const DenseMatrix prod = a.multiply(DenseMatrix::identity(2));
  EXPECT_NEAR(prod.max_abs_diff(a), 0.0, 1e-15);
}

TEST(DenseMatrix, SymmetryPredicate) {
  DenseMatrix s{{2, 1}, {1, 2}};
  DenseMatrix ns{{2, 1}, {0, 2}};
  EXPECT_TRUE(s.is_symmetric());
  EXPECT_FALSE(ns.is_symmetric());
}

TEST(Lu, SolvesKnownSystem) {
  DenseMatrix a{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}};
  const std::vector<Real> x = solve_dense(a, {8, -11, -3});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_NEAR(x[2], -1.0, 1e-12);
}

TEST(Lu, DeterminantAndSingularDetection) {
  LuFactorization lu(DenseMatrix{{2, 0}, {0, 3}});
  EXPECT_NEAR(lu.determinant(), 6.0, 1e-12);
  EXPECT_THROW(LuFactorization(DenseMatrix{{1, 2}, {2, 4}}), NumericalError);
}

TEST(Lu, RandomRoundTrip) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    const Index n = 2 + static_cast<Index>(rng.uniform_index(12));
    DenseMatrix a(n, n);
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < n; ++j) a(i, j) = rng.uniform(-2.0, 2.0);
    }
    for (Index i = 0; i < n; ++i) a(i, i) += 4.0;  // keep well-conditioned
    std::vector<Real> x_true(static_cast<std::size_t>(n));
    for (auto& v : x_true) v = rng.uniform(-5.0, 5.0);
    const std::vector<Real> b = a.multiply(x_true);
    const std::vector<Real> x = solve_dense(a, b);
    EXPECT_LT(relative_error(x, x_true), 1e-9);
  }
}

TEST(Lu, InverseTimesSelfIsIdentity) {
  Rng rng(22);
  DenseMatrix a = random_spd(5, rng);
  const DenseMatrix inv = invert(a);
  EXPECT_NEAR(a.multiply(inv).max_abs_diff(DenseMatrix::identity(5)), 0.0, 1e-9);
}

TEST(Cholesky, MatchesLuOnSpd) {
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    const Index n = 2 + static_cast<Index>(rng.uniform_index(10));
    const DenseMatrix a = random_spd(n, rng);
    std::vector<Real> b(static_cast<std::size_t>(n));
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    const CholeskyFactorization chol(a);
    EXPECT_LT(relative_error(chol.solve(b), solve_dense(a, b)), 1e-9);
  }
}

TEST(Cholesky, RejectsIndefinite) {
  EXPECT_THROW(CholeskyFactorization(DenseMatrix{{1, 2}, {2, 1}}), NumericalError);
}

TEST(Csr, BuilderMergesDuplicatesAndDropsZeros) {
  CooBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 0, 2.0);
  builder.add(1, 1, 5.0);
  builder.add(1, 1, -5.0);  // cancels to zero -> dropped
  const CsrMatrix m = builder.build();
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(Csr, MatvecMatchesDense) {
  Rng rng(24);
  const Index n = 12;
  DenseMatrix dense(n, n);
  CooBuilder builder(n, n);
  for (int k = 0; k < 40; ++k) {
    const Index i = static_cast<Index>(rng.uniform_index(n));
    const Index j = static_cast<Index>(rng.uniform_index(n));
    const Real v = rng.uniform(-1.0, 1.0);
    dense(i, j) += v;
    builder.add(i, j, v);
  }
  const CsrMatrix sparse = builder.build();
  std::vector<Real> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  EXPECT_LT(relative_error(sparse.multiply(x), dense.multiply(x)), 1e-12);
  EXPECT_LT(relative_error(sparse.multiply_transpose(x), dense.multiply_transpose(x)), 1e-12);
}

TEST(Csr, TransposeTwiceIsIdentity) {
  CooBuilder builder(3, 2);
  builder.add(0, 1, 2.0);
  builder.add(2, 0, -1.0);
  const CsrMatrix m = builder.build();
  const CsrMatrix mtt = m.transpose().transpose();
  EXPECT_EQ(mtt.rows(), m.rows());
  EXPECT_DOUBLE_EQ(mtt.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(mtt.at(2, 0), -1.0);
}

TEST(ConjugateGradient, SolvesSpdSystem) {
  Rng rng(25);
  const Index n = 30;
  const DenseMatrix a = random_spd(n, rng);
  CooBuilder builder(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      if (a(i, j) != 0.0) builder.add(i, j, a(i, j));
    }
  }
  std::vector<Real> x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  const CsrMatrix sparse = builder.build();
  const std::vector<Real> b = sparse.multiply(x_true);
  const IterativeResult result = conjugate_gradient(sparse, b);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(relative_error(result.x, x_true), 1e-7);
}

TEST(ConjugateGradient, ZeroRhsGivesZero) {
  CooBuilder builder(3, 3);
  for (Index i = 0; i < 3; ++i) builder.add(i, i, 1.0);
  const IterativeResult result = conjugate_gradient(builder.build(), {0, 0, 0});
  EXPECT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(norm2(result.x), 0.0);
}

// --- Effective resistance: closed-form circuits ----------------------------

TEST(EffectiveResistance, SeriesChain) {
  // 0 -1k- 1 -2k- 2: R(0,2) = 3k.
  const std::vector<WeightedEdge> edges{{0, 1, 1.0 / 1000}, {1, 2, 1.0 / 2000}};
  const EffectiveResistance oracle(3, edges);
  EXPECT_NEAR(oracle.between(0, 2), 3000.0, 1e-6);
  EXPECT_NEAR(oracle.between(0, 1), 1000.0, 1e-6);
}

TEST(EffectiveResistance, ParallelPair) {
  // Two resistors 2k and 3k in parallel: 1.2k.
  const std::vector<WeightedEdge> edges{{0, 1, 1.0 / 2000}, {0, 1, 1.0 / 3000}};
  const EffectiveResistance oracle(2, edges);
  EXPECT_NEAR(oracle.between(0, 1), 1200.0, 1e-6);
}

TEST(EffectiveResistance, BalancedWheatstoneBridge) {
  // All arms 1k, bridge 5k between 1 and 2: balanced, bridge carries nothing,
  // R(0,3) = 1k.
  const std::vector<WeightedEdge> edges{{0, 1, 1e-3}, {0, 2, 1e-3}, {1, 3, 1e-3},
                                        {2, 3, 1e-3}, {1, 2, 1.0 / 5000}};
  const EffectiveResistance oracle(4, edges);
  EXPECT_NEAR(oracle.between(0, 3), 1000.0, 1e-6);
}

TEST(EffectiveResistance, SymmetricAndTriangleInequality) {
  Rng rng(26);
  std::vector<WeightedEdge> edges;
  const Index n = 6;
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) {
      edges.push_back({i, j, rng.uniform(0.1, 2.0)});
    }
  }
  const EffectiveResistance oracle(n, edges);
  for (Index a = 0; a < n; ++a) {
    for (Index b = a + 1; b < n; ++b) {
      EXPECT_NEAR(oracle.between(a, b), oracle.between(b, a), 1e-10);
      for (Index c = 0; c < n; ++c) {
        if (c == a || c == b) continue;
        // Effective resistance is a metric.
        EXPECT_LE(oracle.between(a, b),
                  oracle.between(a, c) + oracle.between(c, b) + 1e-9);
      }
    }
  }
}

TEST(EffectiveResistance, DisconnectedGraphThrows) {
  const std::vector<WeightedEdge> edges{{0, 1, 1.0}};  // node 2 isolated
  EXPECT_THROW(EffectiveResistance(3, edges), NumericalError);
}

TEST(EffectiveResistance, PotentialsSatisfyOhmAndKcl) {
  const std::vector<WeightedEdge> edges{{0, 1, 1e-3}, {1, 2, 1e-3}, {0, 2, 1e-3}};
  const EffectiveResistance oracle(3, edges);
  const std::vector<Real> phi = oracle.potentials(0, 2);
  // Unit current in at 0, out at 2: check KCL at node 1.
  const Real i01 = (phi[0] - phi[1]) * 1e-3;
  const Real i12 = (phi[1] - phi[2]) * 1e-3;
  EXPECT_NEAR(i01, i12, 1e-12);
  // Total drop equals effective resistance for unit current.
  EXPECT_NEAR(phi[0] - phi[2], oracle.between(0, 2), 1e-9);
}

TEST(Laplacian, DenseAndSparseAgree) {
  const std::vector<WeightedEdge> edges{{0, 1, 2.0}, {1, 2, 3.0}, {0, 2, 0.5}};
  const DenseMatrix dense = build_dense_laplacian(3, edges);
  const CsrMatrix sparse = build_sparse_laplacian(3, edges);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 3; ++j) EXPECT_NEAR(dense(i, j), sparse.at(i, j), 1e-15);
  }
  // Row sums of a Laplacian vanish.
  const std::vector<Real> ones{1, 1, 1};
  EXPECT_NEAR(norm2(dense.multiply(ones)), 0.0, 1e-12);
}

TEST(Laplacian, RejectsBadEdges) {
  EXPECT_THROW(build_dense_laplacian(2, {{0, 0, 1.0}}), ContractError);
  EXPECT_THROW(build_dense_laplacian(2, {{0, 1, -1.0}}), ContractError);
  EXPECT_THROW(build_dense_laplacian(2, {{0, 5, 1.0}}), ContractError);
}

// A ragged random CSR with an empty row, an empty column, and duplicate COO
// coordinates -- the cases the CsrMatrix accessors have to survive.
CsrMatrix ragged_fixture(DenseMatrix& dense_out) {
  const Index rows = 5;
  const Index cols = 4;
  CooBuilder builder(rows, cols);
  dense_out = DenseMatrix(rows, cols);
  const auto put = [&](Index r, Index c, Real v) {
    builder.add(r, c, v);
    dense_out(r, c) += v;
  };
  // Row 2 and column 3 stay empty; (0, 1) accumulates three duplicates.
  put(0, 1, 1.5);
  put(0, 1, -0.25);
  put(0, 1, 2.0);
  put(0, 0, 3.0);
  put(1, 2, -4.0);
  put(3, 0, 0.5);
  put(3, 1, 1.0);
  put(4, 2, 2.5);
  put(4, 0, -1.0);
  return builder.build();
}

TEST(Csr, TransposeProductMatchesDenseReference) {
  DenseMatrix dense(1, 1);
  const CsrMatrix m = ragged_fixture(dense);
  const std::vector<Real> x{1.0, -2.0, 0.5, 3.0, -0.75};
  const std::vector<Real> expected = dense.transpose().multiply(x);
  const std::vector<Real> got = m.multiply_transpose(x);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], expected[i], 1e-14);
  // The in-place variant reuses a dirty buffer and must fully overwrite it.
  std::vector<Real> buffer(17, 1e9);
  m.multiply_transpose_into(x, buffer);
  ASSERT_EQ(buffer.size(), expected.size());
  for (std::size_t i = 0; i < buffer.size(); ++i) EXPECT_EQ(buffer[i], got[i]);
}

TEST(Csr, TransposeAtDiagonalMatchDenseReference) {
  DenseMatrix dense(1, 1);
  const CsrMatrix m = ragged_fixture(dense);
  const CsrMatrix t = m.transpose();
  ASSERT_EQ(t.rows(), m.cols());
  ASSERT_EQ(t.cols(), m.rows());
  for (Index r = 0; r < m.rows(); ++r) {
    for (Index c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(m.at(r, c), dense(r, c)) << r << "," << c;
      EXPECT_EQ(t.at(c, r), dense(r, c)) << r << "," << c;
    }
  }
  // diagonal() on a square duplicate-accumulating matrix, zero where absent.
  CooBuilder sq(3, 3);
  sq.add(0, 0, 1.0);
  sq.add(0, 0, 2.0);
  sq.add(1, 2, 5.0);
  sq.add(2, 2, -3.0);
  const std::vector<Real> diag = sq.build().diagonal();
  ASSERT_EQ(diag.size(), 3u);
  EXPECT_EQ(diag[0], 3.0);
  EXPECT_EQ(diag[1], 0.0);
  EXPECT_EQ(diag[2], -3.0);
}

TEST(Csr, InPlaceMultiplyMatchesAllocatingMultiply) {
  DenseMatrix dense(1, 1);
  const CsrMatrix m = ragged_fixture(dense);
  const std::vector<Real> x{0.25, -1.0, 2.0, 4.0};
  const std::vector<Real> expected = m.multiply(x);
  std::vector<Real> y(3, -7.0);  // wrong size and dirty on purpose
  m.multiply_into(x, y);
  ASSERT_EQ(y.size(), expected.size());
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], expected[i]);
  // Row-range partition covering [0, rows) reproduces the same bits.
  std::vector<Real> partitioned(static_cast<std::size_t>(m.rows()), 0.0);
  m.multiply_rows_into(x, partitioned, 0, 2);
  m.multiply_rows_into(x, partitioned, 2, m.rows());
  for (std::size_t i = 0; i < partitioned.size(); ++i) EXPECT_EQ(partitioned[i], expected[i]);
}

TEST(Csr, ZeroPolicyControlsExplicitZeroSlots) {
  // The latent pattern-instability bug: with kDrop, coordinates whose values
  // cancel to exactly 0.0 vanish from the pattern, so the sparsity structure
  // depends on the numeric values. kKeep pins the structural pattern.
  CooBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 2.5);
  builder.add(0, 1, -2.5);  // cancels exactly
  builder.add(1, 1, 4.0);

  const CsrMatrix dropped = builder.build(ZeroPolicy::kDrop);
  EXPECT_EQ(dropped.nnz(), 2u) << "historical behavior: the cancelled slot vanishes";
  EXPECT_EQ(dropped.at(0, 1), 0.0);

  const CsrMatrix kept = builder.build(ZeroPolicy::kKeep);
  EXPECT_EQ(kept.nnz(), 3u) << "structural pattern: the slot stays as explicit zero";
  EXPECT_EQ(kept.at(0, 1), 0.0);
  EXPECT_EQ(kept.row_ptr()[1] - kept.row_ptr()[0], 2);
  // Numerics agree wherever both have a value.
  for (Index r = 0; r < 2; ++r) {
    for (Index c = 0; c < 2; ++c) EXPECT_EQ(kept.at(r, c), dropped.at(r, c));
  }
}

TEST(VectorOps, OrderedDotIsBitIdenticalToDotBelowThreshold) {
  Rng rng(991);
  for (const std::size_t n : {std::size_t{1}, std::size_t{257}, kSerialDotThreshold}) {
    std::vector<Real> a(n);
    std::vector<Real> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.uniform(-1.0, 1.0);
      b[i] = rng.uniform(-1.0, 1.0);
    }
    ASSERT_EQ(dot_chunk_count(n), 1u);
    std::vector<Real> partials;
    EXPECT_EQ(ordered_dot(a, b, partials), dot(a, b)) << "n=" << n;
  }
}

TEST(VectorOps, OrderedDotAboveThresholdSumsFixedChunksInOrder) {
  Rng rng(992);
  const std::size_t n = kSerialDotThreshold + kDotChunk + 17;
  std::vector<Real> a(n);
  std::vector<Real> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-1.0, 1.0);
    b[i] = rng.uniform(-1.0, 1.0);
  }
  const std::size_t chunks = dot_chunk_count(n);
  ASSERT_GT(chunks, 1u);
  // The deterministic contract: ordered_dot == the in-order sum of the fixed
  // chunk partials, and the partials tile [0, n) exactly.
  std::vector<Real> partials;
  const Real got = ordered_dot(a, b, partials);
  ASSERT_EQ(partials.size(), chunks);
  Real manual = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) manual += dot_chunk_partial(a, b, c);
  EXPECT_EQ(got, manual);
  EXPECT_NEAR(got, dot(a, b), 1e-9 * static_cast<Real>(n));
}

}  // namespace
}  // namespace parma::linalg
