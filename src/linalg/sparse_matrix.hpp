// Compressed-sparse-row matrix with a COO staging builder.
//
// Used for the assembled Jacobians of the full joint-constraint system and
// for graph Laplacians; duplicate COO entries are summed on conversion, which
// matches the accumulate-on-assembly pattern of finite-element style codes.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace parma::linalg {

class CsrMatrix;

/// Coordinate-format staging area: push (row, col, value) triplets in any
/// order, then freeze into CSR.
class CooBuilder {
 public:
  CooBuilder(Index rows, Index cols);

  /// Accumulates `value` at (row, col). Values at duplicate coordinates sum.
  void add(Index row, Index col, Real value);

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] std::size_t num_triplets() const { return rows_idx_.size(); }

  /// Sorts (stably: duplicates sum in insertion order) and merges duplicates
  /// into CSR, dropping coordinates whose sum is exactly zero.
  [[nodiscard]] CsrMatrix build() const;

 private:
  Index rows_;
  Index cols_;
  std::vector<Index> rows_idx_;
  std::vector<Index> cols_idx_;
  std::vector<Real> values_;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(Index rows, Index cols, std::vector<Index> row_ptr,
            std::vector<Index> col_idx, std::vector<Real> values);

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  [[nodiscard]] const std::vector<Index>& row_ptr() const { return row_ptr_; }
  [[nodiscard]] const std::vector<Index>& col_idx() const { return col_idx_; }
  [[nodiscard]] const std::vector<Real>& values() const { return values_; }

  /// y = A x.
  [[nodiscard]] std::vector<Real> multiply(const std::vector<Real>& x) const;

  /// y = A^T x.
  [[nodiscard]] std::vector<Real> multiply_transpose(const std::vector<Real>& x) const;

  /// y = A x into a preallocated y (resized if needed; no per-call allocation
  /// once y has capacity). `lo`/`hi` restrict to the row range [lo, hi) so
  /// callers can partition rows across threads (disjoint writes).
  void multiply_into(const std::vector<Real>& x, std::vector<Real>& y) const;
  void multiply_rows_into(const std::vector<Real>& x, std::vector<Real>& y,
                          Index lo, Index hi) const;

  /// Entry lookup (binary search within the row); zero if absent.
  [[nodiscard]] Real at(Index row, Index col) const;

  [[nodiscard]] CsrMatrix transpose() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> row_ptr_;
  std::vector<Index> col_idx_;
  std::vector<Real> values_;
};

}  // namespace parma::linalg
