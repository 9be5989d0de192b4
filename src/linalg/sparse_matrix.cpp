#include "linalg/sparse_matrix.hpp"

#include <algorithm>
#include <numeric>

#include "common/require.hpp"

namespace parma::linalg {

CooBuilder::CooBuilder(Index rows, Index cols) : rows_(rows), cols_(cols) {
  PARMA_REQUIRE(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
}

void CooBuilder::add(Index row, Index col, Real value) {
  PARMA_REQUIRE(row >= 0 && row < rows_ && col >= 0 && col < cols_,
                "COO coordinate out of range");
  rows_idx_.push_back(row);
  cols_idx_.push_back(col);
  values_.push_back(value);
}

CsrMatrix CooBuilder::build() const {
  const std::size_t nnz_in = values_.size();
  std::vector<std::size_t> order(nnz_in);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Stable: duplicates at one coordinate sum in insertion order, which pins
  // the floating-point result.
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    if (rows_idx_[a] != rows_idx_[b]) return rows_idx_[a] < rows_idx_[b];
    return cols_idx_[a] < cols_idx_[b];
  });

  std::vector<Index> row_ptr(static_cast<std::size_t>(rows_) + 1, 0);
  std::vector<Index> col_idx;
  std::vector<Real> values;
  col_idx.reserve(nnz_in);
  values.reserve(nnz_in);

  for (std::size_t k = 0; k < nnz_in;) {
    const Index r = rows_idx_[order[k]];
    const Index c = cols_idx_[order[k]];
    Real sum = 0.0;
    while (k < nnz_in && rows_idx_[order[k]] == r && cols_idx_[order[k]] == c) {
      sum += values_[order[k]];
      ++k;
    }
    if (sum != 0.0) {
      col_idx.push_back(c);
      values.push_back(sum);
      ++row_ptr[static_cast<std::size_t>(r) + 1];
    }
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows_); ++r) {
    row_ptr[r + 1] += row_ptr[r];
  }
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx), std::move(values));
}

CsrMatrix::CsrMatrix(Index rows, Index cols, std::vector<Index> row_ptr,
                     std::vector<Index> col_idx, std::vector<Real> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  PARMA_REQUIRE(row_ptr_.size() == static_cast<std::size_t>(rows_) + 1,
                "CSR row_ptr must have rows+1 entries");
  PARMA_REQUIRE(col_idx_.size() == values_.size(), "CSR col/value size mismatch");
  PARMA_REQUIRE(static_cast<std::size_t>(row_ptr_.back()) == values_.size(),
                "CSR row_ptr terminator mismatch");
}

std::vector<Real> CsrMatrix::multiply(const std::vector<Real>& x) const {
  PARMA_REQUIRE(static_cast<Index>(x.size()) == cols_, "multiply: size mismatch");
  std::vector<Real> y(static_cast<std::size_t>(rows_), 0.0);
  for (Index r = 0; r < rows_; ++r) {
    Real sum = 0.0;
    for (Index k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      sum += values_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = sum;
  }
  return y;
}

void CsrMatrix::multiply_into(const std::vector<Real>& x, std::vector<Real>& y) const {
  y.resize(static_cast<std::size_t>(rows_));
  multiply_rows_into(x, y, 0, rows_);
}

void CsrMatrix::multiply_rows_into(const std::vector<Real>& x, std::vector<Real>& y,
                                   Index lo, Index hi) const {
  PARMA_REQUIRE(static_cast<Index>(x.size()) == cols_, "multiply_rows_into: size mismatch");
  PARMA_REQUIRE(static_cast<Index>(y.size()) == rows_ && lo >= 0 && hi <= rows_,
                "multiply_rows_into: bad output or row range");
  for (Index r = lo; r < hi; ++r) {
    Real sum = 0.0;
    for (Index k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      sum += values_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = sum;
  }
}

std::vector<Real> CsrMatrix::multiply_transpose(const std::vector<Real>& x) const {
  PARMA_REQUIRE(static_cast<Index>(x.size()) == rows_, "multiply_transpose: size mismatch");
  std::vector<Real> y(static_cast<std::size_t>(cols_), 0.0);
  for (Index r = 0; r < rows_; ++r) {
    const Real xr = x[static_cast<std::size_t>(r)];
    if (xr == 0.0) continue;
    for (Index k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      y[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] +=
          values_[static_cast<std::size_t>(k)] * xr;
    }
  }
  return y;
}

Real CsrMatrix::at(Index row, Index col) const {
  PARMA_REQUIRE(row >= 0 && row < rows_ && col >= 0 && col < cols_, "at: out of range");
  const auto begin = col_idx_.begin() + row_ptr_[static_cast<std::size_t>(row)];
  const auto end = col_idx_.begin() + row_ptr_[static_cast<std::size_t>(row) + 1];
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

CsrMatrix CsrMatrix::transpose() const {
  CooBuilder builder(cols_, rows_);
  for (Index r = 0; r < rows_; ++r) {
    for (Index k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      builder.add(col_idx_[static_cast<std::size_t>(k)], r,
                  values_[static_cast<std::size_t>(k)]);
    }
  }
  return builder.build();
}

}  // namespace parma::linalg
