// The kernel layer: symbolic/numeric split for the Gauss-Newton hot path.
//
// Every Gauss-Newton outer iteration needs the Jacobian J(x), the normal
// matrix A = JᵀJ, and the residual r(x) of the joint-constraint system. The
// historical path rebuilt all three from scratch per iteration: a CooBuilder
// sort for J, an O(row-nnz²) triple loop plus another sort for A, and fresh
// vectors on every CG product. But the sparsity structure is a pure function
// of the device SHAPE -- the equation terms reference the same unknowns no
// matter what was measured -- so all of that analysis can happen once:
//
//   SystemSymbolic   one-time symbolic analysis (shareable across every
//                    system of the same shape, cached by core::FormationCache):
//                      * the structural CSR pattern of J plus a term -> slot
//                        scatter map (3 slots per term);
//                      * the Gustavson-style pattern of A = JᵀJ, with the
//                        diagonal always structurally present (so a Tikhonov
//                        ridge can be added in place);
//                      * a CSC view of J's pattern (row lists per unknown,
//                        rows ascending) driving the A refresh.
//   SystemKernels    the per-solve numeric workspace: holds J and A with
//                    fixed patterns and refreshes their values in place --
//                    no CooBuilder, no sort, no allocation per refresh.
//
// Refreshes and the residual parallelize over FIXED chunk boundaries (a pure
// function of the row count) on an exec::Executor. Every row is written by
// exactly one chunk and its accumulation order is pinned by the symbolic
// structure, so the results are bit-identical across serial/pooled/stealing
// backends and any worker count -- and, because CooBuilder::build sums
// duplicates stably in insertion order, bit-identical to the CooBuilder path
// itself (asserted in tests/test_kernels.cpp).
#pragma once

#include <memory>
#include <vector>

#include "equations/generator.hpp"
#include "exec/executor.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace parma::solver {

/// Shape-invariant symbolic structure of one EquationSystem. Immutable after
/// analyze(); share one instance across all systems of a shape.
struct SystemSymbolic {
  Index rows = 0;  ///< equations
  Index cols = 0;  ///< unknowns

  /// Structural CSR pattern of J: every slot a term can touch, kept even
  /// when the numeric value happens to be exactly zero (ZeroPolicy::kKeep
  /// semantics -- the pattern never depends on x).
  std::vector<Index> j_row_ptr;
  std::vector<Index> j_col_idx;

  /// Term -> slot scatter map: 3 consecutive entries per term, flattened in
  /// (equation, term) order: the J-slots of d/dx_plus, d/dx_minus,
  /// d/dx_resistor (-1 where the term has no plus/minus unknown).
  std::vector<Index> term_slots;
  /// First flattened term index of each equation (size rows + 1), so chunked
  /// refreshes can random-access their term range.
  std::vector<Index> term_begin;

  /// CSR pattern of A = JᵀJ (Gustavson union over J's structural pattern),
  /// with A(i, i) forced structurally present for in-place ridge addition.
  std::vector<Index> a_row_ptr;
  std::vector<Index> a_col_idx;
  std::vector<Index> a_diag_slot;  ///< slot of A(i, i) per unknown i

  /// CSC view of J's pattern: for unknown column i, the touching equation
  /// rows (ascending -- this pins the A-refresh summation order) and the
  /// matching J slot.
  std::vector<Index> jt_col_ptr;
  std::vector<Index> jt_row_idx;
  std::vector<Index> jt_slot;

  /// Block-Jacobi plan over A's pattern: per-electrode blocks over the
  /// unknown layout -- one block per device row of resistances (they couple
  /// through shared wire equations), one per endpoint pair's contiguous
  /// voltage group (those unknowns appear only in that pair's equations) --
  /// plus the CSR-slot scatter map. Shared via the same FormationCache entry
  /// as the rest of the symbolic, so per-solve preconditioner construction is
  /// numeric-only.
  std::shared_ptr<const linalg::BlockJacobiPreconditioner::Plan> block_plan;

  [[nodiscard]] std::size_t j_nnz() const { return j_col_idx.size(); }
  [[nodiscard]] std::size_t a_nnz() const { return a_col_idx.size(); }

  /// One-time symbolic analysis. Only the term/unknown structure of `system`
  /// is read (never measured values), so the result is valid for every
  /// system of the same device shape.
  static std::shared_ptr<const SystemSymbolic> analyze(
      const equations::EquationSystem& system);
};

/// Fixed parallel-chunk sizing (pure functions of the row count; never of
/// the backend or worker count -- the determinism contract).
inline constexpr Index kRowChunk = 256;        ///< J refresh / residual rows per chunk
inline constexpr Index kSpmvRowChunk = 512;    ///< CG SpMV rows per chunk
inline constexpr Index kNormalChunkCount = 16; ///< fixed chunk count of the A refresh
inline constexpr Index kSerialRowThreshold = 2048;  ///< below: skip executor dispatch

/// Per-solve numeric workspace: J and A with immutable patterns, values
/// refreshed in place; per-chunk dense accumulators for the Gustavson
/// refresh preallocated once.
///
/// Holds references to `system` (and reads it on every refresh); the system
/// must outlive the kernels.
class SystemKernels {
 public:
  /// `symbolic` null analyzes here; pass the FormationCache-shared instance
  /// to amortize analysis across requests of one shape.
  explicit SystemKernels(const equations::EquationSystem& system,
                         std::shared_ptr<const SystemSymbolic> symbolic = nullptr);

  [[nodiscard]] const SystemSymbolic& symbolic() const { return *symbolic_; }

  /// J at the x of the last refresh_jacobian (structural pattern, explicit
  /// zeros possible).
  [[nodiscard]] const linalg::CsrMatrix& jacobian() const { return j_; }

  /// A = JᵀJ at the J of the last refresh_normal.
  [[nodiscard]] const linalg::CsrMatrix& normal() const { return a_; }

  /// Cache-line-aligned, chunk-contiguous shadow of A's values, refreshed in
  /// lockstep by refresh_normal: the SIMD-friendly SpMV layout for the CG
  /// rungs (bit-identical products; see linalg::PaddedCsrChunks).
  [[nodiscard]] const linalg::PaddedCsrChunks& padded_normal() const { return padded_a_; }

  /// Scatter-map refresh of J's values at x: zero the row's slots, then
  /// accumulate the term partials in term order (the CooBuilder insertion
  /// order). Parallel over kRowChunk blocks; bit-identical for any backend.
  void refresh_jacobian(const std::vector<Real>& x, exec::Executor* executor = nullptr);

  /// Gustavson numeric refresh of A from the current J values, row block per
  /// fixed chunk with a per-chunk dense accumulator. Contributions to A(i, c)
  /// sum over equations r in ascending order -- the same order the reference
  /// CooBuilder path produces.
  void refresh_normal(exec::Executor* executor = nullptr);

  /// Row-weighted refresh: A = J^T W J with W = diag(row_weights), the IRLS
  /// normal equations. Weights are numeric-only -- the pattern, chunking, and
  /// summation order are exactly refresh_normal's (which this equals bit-for-
  /// bit when every weight is 1.0 -- the unweighted entry never reads a
  /// weight, so the robust-off path is untouched).
  void refresh_normal_weighted(const std::vector<Real>& row_weights,
                               exec::Executor* executor = nullptr);

  /// refresh_jacobian followed by refresh_normal.
  void refresh(const std::vector<Real>& x, exec::Executor* executor = nullptr);

  /// Residual r(x) into a preallocated vector, parallel over equations.
  void residual_into(const std::vector<Real>& x, std::vector<Real>& r,
                     exec::Executor* executor = nullptr) const;

 private:
  /// Shared body of refresh_normal / refresh_normal_weighted; `row_weights`
  /// null means unweighted (no per-term multiply at all).
  void refresh_normal_impl(const Real* row_weights, exec::Executor* executor);

  const equations::EquationSystem* system_;
  std::shared_ptr<const SystemSymbolic> symbolic_;
  linalg::CsrMatrix j_;
  linalg::CsrMatrix a_;
  linalg::PaddedCsrChunks padded_a_;  ///< aligned SpMV shadow of a_
  Index normal_chunk_rows_ = 1;
  std::vector<std::vector<Real>> accumulators_;  ///< one per fixed A-refresh chunk
};

/// CG operator over a CsrMatrix with executor-parallel SpMV (row-partitioned,
/// disjoint writes) and ordered chunked dot reductions over the fixed
/// boundaries of linalg::ordered_dot -- the parallel results are
/// bit-identical to linalg::SerialCsrOperator at any worker count. A null
/// executor (or a small system) runs serially.
class ParallelCsrOperator {
 public:
  /// With a padded shadow of `a` (same pattern, kSpmvRowChunk chunking), the
  /// SpMV streams the aligned chunk slabs instead -- identical arithmetic
  /// order, identical bits, vectorization-friendly loads.
  ParallelCsrOperator(const linalg::CsrMatrix& a, exec::Executor* executor,
                      const linalg::PaddedCsrChunks* padded = nullptr);

  [[nodiscard]] Index rows() const { return a_->rows(); }
  void multiply_into(const std::vector<Real>& x, std::vector<Real>& y) const;
  void diagonal_into(std::vector<Real>& d) const;
  [[nodiscard]] Real dot(const std::vector<Real>& a, const std::vector<Real>& b,
                         std::vector<Real>& partials) const;

 private:
  const linalg::CsrMatrix* a_;
  exec::Executor* executor_;
  const linalg::PaddedCsrChunks* padded_ = nullptr;
};

/// The pre-kernel JᵀJ construction (CooBuilder with an O(row-nnz²) triple
/// loop plus a sort): the reference the kernel refresh is benchmarked and
/// bit-compared against.
[[nodiscard]] linalg::CsrMatrix reference_normal_matrix(
    const linalg::CsrMatrix& j, linalg::ZeroPolicy policy = linalg::ZeroPolicy::kDrop);

}  // namespace parma::solver
