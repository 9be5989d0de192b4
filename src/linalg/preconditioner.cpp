#include "linalg/preconditioner.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace parma::linalg {

namespace {

// The inline-Jacobi guard conjugate_gradient_with uses: a zero diagonal
// preconditions with 1 instead of dividing by zero.
inline Real guarded_inverse(Real d) { return (d != 0.0) ? 1.0 / d : 1.0; }

// Block id of row `i` given contiguous block boundaries.
Index block_of(const std::vector<Index>& block_ptr, Index i) {
  const auto it = std::upper_bound(block_ptr.begin(), block_ptr.end(), i);
  PARMA_ASSERT(it != block_ptr.begin() && it != block_ptr.end());
  return static_cast<Index>(it - block_ptr.begin()) - 1;
}

// Packed-storage offsets of the blocks (each block starts on a cache line);
// returns the total packed size.
Index layout_blocks(const std::vector<Index>& block_ptr, std::vector<Index>& offsets) {
  PARMA_REQUIRE(block_ptr.size() >= 2 && block_ptr.front() == 0, "block_ptr must start at 0");
  const Index blocks = static_cast<Index>(block_ptr.size()) - 1;
  offsets.resize(static_cast<std::size_t>(blocks));
  std::size_t offset = 0;
  for (Index b = 0; b < blocks; ++b) {
    const Index bs = block_ptr[static_cast<std::size_t>(b) + 1] -
                     block_ptr[static_cast<std::size_t>(b)];
    PARMA_REQUIRE(bs > 0, "block_ptr must be strictly increasing");
    offsets[static_cast<std::size_t>(b)] = static_cast<Index>(offset);
    offset = align_up_elements<Real>(offset + static_cast<std::size_t>(bs) *
                                                  static_cast<std::size_t>(bs));
  }
  return static_cast<Index>(offset);
}

}  // namespace

void IdentityPreconditioner::apply(const std::vector<Real>& r, std::vector<Real>& z) const {
  z.resize(r.size());
  std::copy(r.begin(), r.end(), z.begin());
}

std::shared_ptr<const BlockJacobiPreconditioner::Plan> BlockJacobiPreconditioner::Plan::analyze(
    std::vector<Index> block_ptr, const std::vector<Index>& row_ptr,
    const std::vector<Index>& col_idx) {
  auto plan = std::make_shared<Plan>();
  plan->block_ptr = std::move(block_ptr);
  const auto& bp = plan->block_ptr;
  plan->packed_size = layout_blocks(bp, plan->packed_offset);
  const Index rows = static_cast<Index>(row_ptr.size()) - 1;
  PARMA_REQUIRE(bp.back() == rows, "block_ptr must end at the matrix dimension");

  // Lower-triangle scatter map: every A slot (i, c) with c and i in the same
  // block and c <= i lands at its packed row-major block-local position.
  for (Index i = 0; i < rows; ++i) {
    const Index b = block_of(bp, i);
    const Index lo = bp[static_cast<std::size_t>(b)];
    const Index bs = bp[static_cast<std::size_t>(b) + 1] - lo;
    const Index base =
        plan->packed_offset[static_cast<std::size_t>(b)] + (i - lo) * bs - lo;
    for (Index s = row_ptr[static_cast<std::size_t>(i)];
         s < row_ptr[static_cast<std::size_t>(i) + 1]; ++s) {
      const Index c = col_idx[static_cast<std::size_t>(s)];
      if (c < lo || c > i) continue;
      plan->csr_slot.push_back(s);
      plan->packed_slot.push_back(base + c);
    }
  }
  return plan;
}

BlockJacobiPreconditioner::BlockJacobiPreconditioner(std::shared_ptr<const Plan> plan)
    : plan_(std::move(plan)) {
  PARMA_REQUIRE(plan_ != nullptr, "BlockJacobiPreconditioner needs a plan");
  block_ptr_ = plan_->block_ptr;
  packed_offset_ = plan_->packed_offset;
  packed_.resize(static_cast<std::size_t>(plan_->packed_size), 0.0);
  diag_.assign(static_cast<std::size_t>(block_ptr_.back()), 0.0);
  diag_only_.assign(block_ptr_.size() - 1, 0);
}

BlockJacobiPreconditioner::BlockJacobiPreconditioner(std::vector<Index> block_ptr)
    : block_ptr_(std::move(block_ptr)) {
  packed_.resize(static_cast<std::size_t>(layout_blocks(block_ptr_, packed_offset_)), 0.0);
  diag_.assign(static_cast<std::size_t>(block_ptr_.back()), 0.0);
  diag_only_.assign(block_ptr_.size() - 1, 0);
}

void BlockJacobiPreconditioner::refresh(const CsrMatrix& a) {
  PARMA_REQUIRE(plan_ != nullptr,
                "sparse refresh needs the Plan constructor (CSR scatter map)");
  PARMA_REQUIRE(a.rows() == block_ptr_.back(), "block preconditioner size mismatch");
  std::fill(packed_.begin(), packed_.end(), 0.0);
  const auto& avals = a.values();
  const std::size_t nnz = plan_->csr_slot.size();
  for (std::size_t k = 0; k < nnz; ++k) {
    packed_[static_cast<std::size_t>(plan_->packed_slot[k])] =
        avals[static_cast<std::size_t>(plan_->csr_slot[k])];
  }
  factor_packed();
}

void BlockJacobiPreconditioner::refresh(const DenseMatrix& a) {
  PARMA_REQUIRE(a.rows() == block_ptr_.back() && a.rows() == a.cols(),
                "block preconditioner size mismatch");
  std::fill(packed_.begin(), packed_.end(), 0.0);
  const Index blocks = static_cast<Index>(block_ptr_.size()) - 1;
  for (Index b = 0; b < blocks; ++b) {
    const Index lo = block_ptr_[static_cast<std::size_t>(b)];
    const Index bs = block_ptr_[static_cast<std::size_t>(b) + 1] - lo;
    Real* m = packed_.data() + packed_offset_[static_cast<std::size_t>(b)];
    for (Index li = 0; li < bs; ++li) {
      for (Index lc = 0; lc <= li; ++lc) {
        m[li * bs + lc] = a(lo + li, lo + lc);
      }
    }
  }
  factor_packed();
}

void BlockJacobiPreconditioner::factor_packed() {
  const Index blocks = static_cast<Index>(block_ptr_.size()) - 1;
  for (Index b = 0; b < blocks; ++b) {
    const Index lo = block_ptr_[static_cast<std::size_t>(b)];
    const Index bs = block_ptr_[static_cast<std::size_t>(b) + 1] - lo;
    Real* m = packed_.data() + packed_offset_[static_cast<std::size_t>(b)];
    // Stash the raw diagonal before factoring: the per-block breakdown
    // fallback needs it (and overwrites it with its inverse below).
    for (Index li = 0; li < bs; ++li) {
      diag_[static_cast<std::size_t>(lo + li)] = m[li * bs + li];
    }
    diag_only_[static_cast<std::size_t>(b)] = 0;
    // In-place Cholesky on the lower triangle (row-major).
    bool ok = true;
    for (Index j = 0; j < bs && ok; ++j) {
      Real d = m[j * bs + j];
      for (Index k = 0; k < j; ++k) d -= m[j * bs + k] * m[j * bs + k];
      if (!(d > 0.0) || !std::isfinite(d)) {
        ok = false;
        break;
      }
      const Real ljj = std::sqrt(d);
      m[j * bs + j] = ljj;
      for (Index i = j + 1; i < bs; ++i) {
        Real s = m[i * bs + j];
        for (Index k = 0; k < j; ++k) s -= m[i * bs + k] * m[j * bs + k];
        m[i * bs + j] = s / ljj;
      }
    }
    if (!ok) {
      // Deterministic degradation: this block preconditions with its raw
      // diagonal only. diag_ entries of a broken block hold the INVERSE.
      diag_only_[static_cast<std::size_t>(b)] = 1;
      for (Index li = 0; li < bs; ++li) {
        auto& d = diag_[static_cast<std::size_t>(lo + li)];
        d = guarded_inverse(std::isfinite(d) ? d : 0.0);
      }
    }
  }
}

Index BlockJacobiPreconditioner::fallback_blocks() const {
  Index count = 0;
  for (std::uint8_t f : diag_only_) count += f;
  return count;
}

void BlockJacobiPreconditioner::apply(const std::vector<Real>& r, std::vector<Real>& z) const {
  PARMA_REQUIRE(static_cast<Index>(r.size()) == block_ptr_.back(),
                "block preconditioner size mismatch");
  z.resize(r.size());
  const Index blocks = static_cast<Index>(block_ptr_.size()) - 1;
  for (Index b = 0; b < blocks; ++b) {
    const Index lo = block_ptr_[static_cast<std::size_t>(b)];
    const Index bs = block_ptr_[static_cast<std::size_t>(b) + 1] - lo;
    if (diag_only_[static_cast<std::size_t>(b)] != 0) {
      for (Index li = 0; li < bs; ++li) {
        const std::size_t g = static_cast<std::size_t>(lo + li);
        z[g] = diag_[g] * r[g];
      }
      continue;
    }
    const Real* m = packed_.data() + packed_offset_[static_cast<std::size_t>(b)];
    Real* zb = z.data() + lo;
    const Real* rb = r.data() + lo;
    // Forward solve L y = r (y stored in z), then backward solve Lᵀ z = y.
    for (Index li = 0; li < bs; ++li) {
      Real s = rb[li];
      for (Index k = 0; k < li; ++k) s -= m[li * bs + k] * zb[k];
      zb[li] = s / m[li * bs + li];
    }
    for (Index li = bs - 1; li >= 0; --li) {
      Real s = zb[li];
      for (Index k = li + 1; k < bs; ++k) s -= m[k * bs + li] * zb[k];
      zb[li] = s / m[li * bs + li];
    }
  }
}

}  // namespace parma::linalg
