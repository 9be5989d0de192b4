#include "solver/system_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "equations/residual.hpp"

namespace parma::solver {
namespace {

// Runs fn over the exact fixed chunk boundaries [lo, min(lo + chunk, rows))
// either inline (null executor or a small system) or via submit_bulk. Both
// dispatches visit the same boundaries -- the chunking is part of the numeric
// contract (the A refresh indexes its accumulator by lo / chunk), never a
// tuning knob the backend may alter.
void run_chunked(exec::Executor* executor, Index rows, Index chunk,
                 const std::function<void(Index, Index)>& fn) {
  if (rows <= 0) return;
  if (executor == nullptr || rows < kSerialRowThreshold) {
    for (Index lo = 0; lo < rows; lo += chunk) fn(lo, std::min(rows, lo + chunk));
    return;
  }
  executor->submit_bulk(0, rows, chunk, fn);
}

// Slot of `col` within the sorted column slice [begin, end) of j_col_idx.
Index find_slot(const std::vector<Index>& col_idx, Index begin, Index end, Index col) {
  const auto first = col_idx.begin() + begin;
  const auto last = col_idx.begin() + end;
  const auto it = std::lower_bound(first, last, col);
  PARMA_ASSERT(it != last && *it == col);
  return static_cast<Index>(it - col_idx.begin());
}

}  // namespace

std::shared_ptr<const SystemSymbolic> SystemSymbolic::analyze(
    const equations::EquationSystem& system) {
  auto sym = std::make_shared<SystemSymbolic>();
  const Index rows = static_cast<Index>(system.equations.size());
  const Index cols = system.layout.num_unknowns();
  sym->rows = rows;
  sym->cols = cols;

  // Flattened term offsets.
  sym->term_begin.resize(static_cast<std::size_t>(rows) + 1);
  sym->term_begin[0] = 0;
  for (Index row = 0; row < rows; ++row) {
    sym->term_begin[static_cast<std::size_t>(row) + 1] =
        sym->term_begin[static_cast<std::size_t>(row)] +
        static_cast<Index>(system.equations[static_cast<std::size_t>(row)].terms.size());
  }
  const Index total_terms = sym->term_begin[static_cast<std::size_t>(rows)];

  // Structural CSR pattern of J: the union of unknowns each row's terms touch.
  sym->j_row_ptr.resize(static_cast<std::size_t>(rows) + 1);
  sym->j_row_ptr[0] = 0;
  std::vector<Index> row_cols;
  for (Index row = 0; row < rows; ++row) {
    row_cols.clear();
    for (const auto& term : system.equations[static_cast<std::size_t>(row)].terms) {
      PARMA_REQUIRE(term.resistor_unknown >= 0 && term.resistor_unknown < cols,
                    "term resistor unknown out of range");
      if (term.plus_unknown >= 0) row_cols.push_back(term.plus_unknown);
      if (term.minus_unknown >= 0) row_cols.push_back(term.minus_unknown);
      row_cols.push_back(term.resistor_unknown);
    }
    std::sort(row_cols.begin(), row_cols.end());
    row_cols.erase(std::unique(row_cols.begin(), row_cols.end()), row_cols.end());
    PARMA_REQUIRE(row_cols.empty() || (row_cols.front() >= 0 && row_cols.back() < cols),
                  "term unknown out of range");
    sym->j_col_idx.insert(sym->j_col_idx.end(), row_cols.begin(), row_cols.end());
    sym->j_row_ptr[static_cast<std::size_t>(row) + 1] = static_cast<Index>(sym->j_col_idx.size());
  }

  // Term -> slot scatter map.
  sym->term_slots.assign(static_cast<std::size_t>(total_terms) * 3, -1);
  for (Index row = 0; row < rows; ++row) {
    const Index begin = sym->j_row_ptr[static_cast<std::size_t>(row)];
    const Index end = sym->j_row_ptr[static_cast<std::size_t>(row) + 1];
    Index t = sym->term_begin[static_cast<std::size_t>(row)];
    for (const auto& term : system.equations[static_cast<std::size_t>(row)].terms) {
      const std::size_t base = static_cast<std::size_t>(t) * 3;
      if (term.plus_unknown >= 0) {
        sym->term_slots[base] = find_slot(sym->j_col_idx, begin, end, term.plus_unknown);
      }
      if (term.minus_unknown >= 0) {
        sym->term_slots[base + 1] = find_slot(sym->j_col_idx, begin, end, term.minus_unknown);
      }
      sym->term_slots[base + 2] = find_slot(sym->j_col_idx, begin, end, term.resistor_unknown);
      ++t;
    }
  }

  // CSC view of J's pattern. Filling in row order makes each column's row
  // list ascending -- the summation order of the A refresh.
  const std::size_t j_nnz = sym->j_col_idx.size();
  sym->jt_col_ptr.assign(static_cast<std::size_t>(cols) + 1, 0);
  for (std::size_t k = 0; k < j_nnz; ++k) {
    ++sym->jt_col_ptr[static_cast<std::size_t>(sym->j_col_idx[k]) + 1];
  }
  for (std::size_t c = 0; c < static_cast<std::size_t>(cols); ++c) {
    sym->jt_col_ptr[c + 1] += sym->jt_col_ptr[c];
  }
  sym->jt_row_idx.resize(j_nnz);
  sym->jt_slot.resize(j_nnz);
  std::vector<Index> cursor(sym->jt_col_ptr.begin(), sym->jt_col_ptr.end() - 1);
  for (Index row = 0; row < rows; ++row) {
    for (Index k = sym->j_row_ptr[static_cast<std::size_t>(row)];
         k < sym->j_row_ptr[static_cast<std::size_t>(row) + 1]; ++k) {
      const Index col = sym->j_col_idx[static_cast<std::size_t>(k)];
      const Index at = cursor[static_cast<std::size_t>(col)]++;
      sym->jt_row_idx[static_cast<std::size_t>(at)] = row;
      sym->jt_slot[static_cast<std::size_t>(at)] = k;
    }
  }

  // Gustavson symbolic pass for A = J^T J: the pattern of A-row i is the
  // union of J-row patterns over the rows touching column i, plus the forced
  // diagonal (the in-place Tikhonov ridge needs A(i, i) present even when no
  // equation couples unknown i to itself).
  sym->a_row_ptr.resize(static_cast<std::size_t>(cols) + 1);
  sym->a_row_ptr[0] = 0;
  std::vector<Index> marker(static_cast<std::size_t>(cols), -1);
  std::vector<Index> a_cols;
  for (Index i = 0; i < cols; ++i) {
    a_cols.clear();
    for (Index idx = sym->jt_col_ptr[static_cast<std::size_t>(i)];
         idx < sym->jt_col_ptr[static_cast<std::size_t>(i) + 1]; ++idx) {
      const Index r = sym->jt_row_idx[static_cast<std::size_t>(idx)];
      for (Index k = sym->j_row_ptr[static_cast<std::size_t>(r)];
           k < sym->j_row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        const Index c = sym->j_col_idx[static_cast<std::size_t>(k)];
        if (marker[static_cast<std::size_t>(c)] != i) {
          marker[static_cast<std::size_t>(c)] = i;
          a_cols.push_back(c);
        }
      }
    }
    if (marker[static_cast<std::size_t>(i)] != i) {
      marker[static_cast<std::size_t>(i)] = i;
      a_cols.push_back(i);
    }
    std::sort(a_cols.begin(), a_cols.end());
    sym->a_col_idx.insert(sym->a_col_idx.end(), a_cols.begin(), a_cols.end());
    sym->a_row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<Index>(sym->a_col_idx.size());
  }
  sym->a_diag_slot.resize(static_cast<std::size_t>(cols));
  for (Index i = 0; i < cols; ++i) {
    sym->a_diag_slot[static_cast<std::size_t>(i)] =
        find_slot(sym->a_col_idx, sym->a_row_ptr[static_cast<std::size_t>(i)],
                  sym->a_row_ptr[static_cast<std::size_t>(i) + 1], i);
  }

  // Per-electrode block-Jacobi plan over the finished A pattern: device rows
  // of resistances first, then each endpoint pair's contiguous voltage group
  // (see the layout ordering in equations/layout.hpp).
  const auto& layout = system.layout;
  std::vector<Index> block_ptr{0};
  for (Index i = 0; i < layout.rows(); ++i) block_ptr.push_back(block_ptr.back() + layout.cols());
  const Index vpp = layout.voltages_per_pair();
  if (vpp > 0) {
    for (Index p = 0; p < layout.num_pairs(); ++p) block_ptr.push_back(block_ptr.back() + vpp);
  }
  PARMA_REQUIRE(block_ptr.back() == cols, "preconditioner blocks must tile the unknown vector");
  sym->block_plan = linalg::BlockJacobiPreconditioner::Plan::analyze(
      std::move(block_ptr), sym->a_row_ptr, sym->a_col_idx);

  return sym;
}

SystemKernels::SystemKernels(const equations::EquationSystem& system,
                             std::shared_ptr<const SystemSymbolic> symbolic)
    : system_(&system),
      symbolic_(symbolic ? std::move(symbolic) : SystemSymbolic::analyze(system)) {
  PARMA_REQUIRE(symbolic_->rows == static_cast<Index>(system.equations.size()) &&
                    symbolic_->cols == system.layout.num_unknowns(),
                "symbolic structure does not match the equation system shape");
  j_ = linalg::CsrMatrix(symbolic_->rows, symbolic_->cols, symbolic_->j_row_ptr,
                         symbolic_->j_col_idx, std::vector<Real>(symbolic_->j_nnz(), 0.0));
  a_ = linalg::CsrMatrix(symbolic_->cols, symbolic_->cols, symbolic_->a_row_ptr,
                         symbolic_->a_col_idx, std::vector<Real>(symbolic_->a_nnz(), 0.0));
  padded_a_ = linalg::PaddedCsrChunks(a_, kSpmvRowChunk);
  normal_chunk_rows_ =
      std::max<Index>(1, (symbolic_->cols + kNormalChunkCount - 1) / kNormalChunkCount);
  const Index chunks =
      symbolic_->cols == 0
          ? 0
          : (symbolic_->cols + normal_chunk_rows_ - 1) / normal_chunk_rows_;
  accumulators_.assign(static_cast<std::size_t>(chunks),
                       std::vector<Real>(static_cast<std::size_t>(symbolic_->cols), 0.0));
}

void SystemKernels::refresh_jacobian(const std::vector<Real>& x, exec::Executor* executor) {
  const SystemSymbolic& sym = *symbolic_;
  PARMA_REQUIRE(static_cast<Index>(x.size()) == sym.cols,
                "refresh_jacobian: unknown vector size mismatch");
  auto& vals = j_.values_mut();
  const auto& eqs = system_->equations;
  run_chunked(executor, sym.rows, kRowChunk, [&](Index lo, Index hi) {
    for (Index row = lo; row < hi; ++row) {
      for (Index s = sym.j_row_ptr[static_cast<std::size_t>(row)];
           s < sym.j_row_ptr[static_cast<std::size_t>(row) + 1]; ++s) {
        vals[static_cast<std::size_t>(s)] = 0.0;
      }
      // Accumulate in term order -- the CooBuilder insertion order, which
      // its stable sort preserves: the sums land bit-identical to
      // system_jacobian's.
      Index t = sym.term_begin[static_cast<std::size_t>(row)];
      for (const auto& term : eqs[static_cast<std::size_t>(row)].terms) {
        const equations::TermPartials p = equations::term_partials(term, x);
        const std::size_t base = static_cast<std::size_t>(t) * 3;
        if (term.plus_unknown >= 0) {
          vals[static_cast<std::size_t>(sym.term_slots[base])] += p.d_plus;
        }
        if (term.minus_unknown >= 0) {
          vals[static_cast<std::size_t>(sym.term_slots[base + 1])] += p.d_minus;
        }
        vals[static_cast<std::size_t>(sym.term_slots[base + 2])] += p.d_resistor;
        ++t;
      }
    }
  });
}

void SystemKernels::refresh_normal(exec::Executor* executor) {
  refresh_normal_impl(nullptr, executor);
}

void SystemKernels::refresh_normal_weighted(const std::vector<Real>& row_weights,
                                            exec::Executor* executor) {
  PARMA_REQUIRE(static_cast<Index>(row_weights.size()) == symbolic_->rows,
                "refresh_normal_weighted: weight vector size mismatch");
  refresh_normal_impl(row_weights.data(), executor);
}

void SystemKernels::refresh_normal_impl(const Real* row_weights, exec::Executor* executor) {
  const SystemSymbolic& sym = *symbolic_;
  auto& avals = a_.values_mut();
  const auto& jvals = j_.values();
  run_chunked(executor, sym.cols, normal_chunk_rows_, [&](Index lo, Index hi) {
    // One dense accumulator per fixed chunk; entries are zero on entry and
    // re-zeroed sparsely on exit (only the slots of the row pattern were
    // touched), so no O(cols) clear per row.
    auto& acc = accumulators_[static_cast<std::size_t>(lo / normal_chunk_rows_)];
    for (Index i = lo; i < hi; ++i) {
      for (Index idx = sym.jt_col_ptr[static_cast<std::size_t>(i)];
           idx < sym.jt_col_ptr[static_cast<std::size_t>(i) + 1]; ++idx) {
        const Index r = sym.jt_row_idx[static_cast<std::size_t>(idx)];
        // The weighted entry folds w_r into the row coefficient (A(i, c) =
        // sum_r w_r J(r, i) J(r, c)); the unweighted entry performs exactly
        // the historical arithmetic -- no multiply by 1.0.
        const Real j_ri = jvals[static_cast<std::size_t>(sym.jt_slot[static_cast<std::size_t>(idx)])];
        const Real coef =
            (row_weights != nullptr) ? row_weights[static_cast<std::size_t>(r)] * j_ri : j_ri;
        // Equations r arrive ascending (CSC fill order), so each A(i, c)
        // sums its J(r,i)*J(r,c) contributions in exactly the order the
        // stable-sorted CooBuilder reference does.
        for (Index k = sym.j_row_ptr[static_cast<std::size_t>(r)];
             k < sym.j_row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
          acc[static_cast<std::size_t>(sym.j_col_idx[static_cast<std::size_t>(k)])] +=
              coef * jvals[static_cast<std::size_t>(k)];
        }
      }
      for (Index s = sym.a_row_ptr[static_cast<std::size_t>(i)];
           s < sym.a_row_ptr[static_cast<std::size_t>(i) + 1]; ++s) {
        const std::size_t c = static_cast<std::size_t>(sym.a_col_idx[static_cast<std::size_t>(s)]);
        avals[static_cast<std::size_t>(s)] = acc[c];
        acc[c] = 0.0;
      }
    }
  });
  // Keep the aligned SpMV shadow in lockstep (straight value copies -- the
  // padded layout never changes the numbers, only where they live).
  padded_a_.refresh_values(a_);
}

void SystemKernels::refresh(const std::vector<Real>& x, exec::Executor* executor) {
  refresh_jacobian(x, executor);
  refresh_normal(executor);
}

void SystemKernels::residual_into(const std::vector<Real>& x, std::vector<Real>& r,
                                  exec::Executor* executor) const {
  const SystemSymbolic& sym = *symbolic_;
  PARMA_REQUIRE(static_cast<Index>(x.size()) == sym.cols,
                "residual_into: unknown vector size mismatch");
  r.resize(static_cast<std::size_t>(sym.rows));
  const auto& eqs = system_->equations;
  run_chunked(executor, sym.rows, kRowChunk, [&](Index lo, Index hi) {
    for (Index row = lo; row < hi; ++row) {
      r[static_cast<std::size_t>(row)] =
          equations::equation_residual(eqs[static_cast<std::size_t>(row)], x);
    }
  });
}

ParallelCsrOperator::ParallelCsrOperator(const linalg::CsrMatrix& a, exec::Executor* executor,
                                         const linalg::PaddedCsrChunks* padded)
    : a_(&a), executor_(executor), padded_(padded) {
  PARMA_REQUIRE(a.rows() == a.cols(), "CG needs a square matrix");
  PARMA_REQUIRE(padded == nullptr || (padded->rows() == a.rows() &&
                                      padded->rows_per_chunk() == kSpmvRowChunk),
                "padded shadow does not match the matrix");
}

void ParallelCsrOperator::multiply_into(const std::vector<Real>& x,
                                        std::vector<Real>& y) const {
  const Index n = a_->rows();
  y.resize(static_cast<std::size_t>(n));
  if (executor_ == nullptr || n < kSerialRowThreshold) {
    if (padded_ != nullptr) {
      padded_->multiply_rows_into(x, y, 0, n);
    } else {
      a_->multiply_rows_into(x, y, 0, n);
    }
    return;
  }
  executor_->submit_bulk(0, n, kSpmvRowChunk, [&](Index lo, Index hi) {
    if (padded_ != nullptr) {
      padded_->multiply_rows_into(x, y, lo, hi);
    } else {
      a_->multiply_rows_into(x, y, lo, hi);
    }
  });
}

void ParallelCsrOperator::diagonal_into(std::vector<Real>& d) const {
  // Same linear row scan as linalg::SerialCsrOperator.
  d.assign(static_cast<std::size_t>(a_->rows()), 0.0);
  const auto& row_ptr = a_->row_ptr();
  const auto& col_idx = a_->col_idx();
  const auto& values = a_->values();
  for (Index r = 0; r < a_->rows(); ++r) {
    for (Index k = row_ptr[static_cast<std::size_t>(r)];
         k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      if (col_idx[static_cast<std::size_t>(k)] == r) {
        d[static_cast<std::size_t>(r)] = values[static_cast<std::size_t>(k)];
        break;
      }
    }
  }
}

Real ParallelCsrOperator::dot(const std::vector<Real>& a, const std::vector<Real>& b,
                              std::vector<Real>& partials) const {
  const std::size_t chunks = linalg::dot_chunk_count(a.size());
  if (executor_ == nullptr || chunks == 1) return linalg::ordered_dot(a, b, partials);
  partials.resize(chunks);
  executor_->submit_bulk(0, static_cast<Index>(chunks), 1, [&](Index lo, Index hi) {
    for (Index c = lo; c < hi; ++c) {
      partials[static_cast<std::size_t>(c)] =
          linalg::dot_chunk_partial(a, b, static_cast<std::size_t>(c));
    }
  });
  // The reduction over partials is the serial ordered_dot's: chunk order,
  // independent of which worker computed what.
  Real sum = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) sum += partials[c];
  return sum;
}

linalg::CsrMatrix reference_normal_matrix(const linalg::CsrMatrix& j,
                                          linalg::ZeroPolicy policy) {
  linalg::CooBuilder builder(j.cols(), j.cols());
  const auto& row_ptr = j.row_ptr();
  const auto& col_idx = j.col_idx();
  const auto& values = j.values();
  for (Index r = 0; r < j.rows(); ++r) {
    for (Index a = row_ptr[static_cast<std::size_t>(r)];
         a < row_ptr[static_cast<std::size_t>(r) + 1]; ++a) {
      for (Index b = row_ptr[static_cast<std::size_t>(r)];
           b < row_ptr[static_cast<std::size_t>(r) + 1]; ++b) {
        builder.add(col_idx[static_cast<std::size_t>(a)], col_idx[static_cast<std::size_t>(b)],
                    values[static_cast<std::size_t>(a)] * values[static_cast<std::size_t>(b)]);
      }
    }
  }
  return builder.build(policy);
}

}  // namespace parma::solver
