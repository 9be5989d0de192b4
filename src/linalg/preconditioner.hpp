// Preconditioners for the conjugate-gradient solves.
//
// CG on the Gauss-Newton normal equations JᵀJ δ = -Jᵀr is the solve-phase
// bottleneck once assembly is symbolic/numeric split: iteration count scales
// with the conditioning of JᵀJ, which degrades with device size. The
// block-Jacobi preconditioner follows the same symbolic/numeric split as the
// system kernels:
//
//   * the STRUCTURE (block boundaries, the CSR-slot scatter map) is analyzed
//     once per sparsity pattern and shared across solves --
//     solver::SystemSymbolic::analyze precomputes the plan so it rides the
//     shape-keyed core::FormationCache;
//   * the NUMBERS are refreshed in-pattern from the current matrix values
//     each outer iteration, with no allocation after the first refresh.
//
// Implementations:
//   IdentityPreconditioner     M = I (plain CG): the unpreconditioned
//                              baseline the benches measure against.
//   BlockJacobiPreconditioner  block-diagonal Cholesky over caller-chosen
//                              contiguous blocks (per-electrode blocks for the
//                              full system: one block per device row of
//                              resistances, one per endpoint pair's voltage
//                              group). A block whose Cholesky breaks down
//                              falls back to its diagonal, deterministically.
//
// Inline Jacobi (diag(A)⁻¹) needs no object: conjugate_gradient_with runs it
// when handed a null Preconditioner*.
//
// apply() is deterministic and serial; the same inputs produce the same bits
// on every backend, so preconditioned CG stays bit-identical across
// serial/pooled/stealing executors (the operator products and reductions
// already are).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "linalg/aligned.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/sparse_matrix.hpp"

namespace parma::linalg {

/// Abstract application-side interface: z = M⁻¹ r. Implementations own their
/// factors; refresh entry points are per-concrete-type (the numeric phase).
/// apply must not allocate once the problem size has been seen.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(const std::vector<Real>& r, std::vector<Real>& z) const = 0;
};

/// M = I: z = r. Stateless; needs no refresh.
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(const std::vector<Real>& r, std::vector<Real>& z) const override;
};

/// Block-diagonal preconditioner over contiguous index blocks: each block is
/// gathered into packed row-major dense storage, factored by Cholesky, and
/// applied via two triangular solves. Blocks are independent, so refresh and
/// apply orders are fixed per block -- deterministic on any backend.
class BlockJacobiPreconditioner final : public Preconditioner {
 public:
  /// Symbolic plan for sparse refreshes: which CSR slots of A fall inside a
  /// block, and where they land in the packed storage. Analyzed once per
  /// (block structure, sparsity pattern); immutable and shareable.
  struct Plan {
    std::vector<Index> block_ptr;      ///< block b spans [block_ptr[b], block_ptr[b+1])
    std::vector<Index> packed_offset;  ///< per-block offset into packed storage
    std::vector<Index> csr_slot;       ///< A-value slots inside some block
    std::vector<Index> packed_slot;    ///< matching packed destinations
    Index packed_size = 0;

    static std::shared_ptr<const Plan> analyze(std::vector<Index> block_ptr,
                                               const std::vector<Index>& row_ptr,
                                               const std::vector<Index>& col_idx);
  };

  /// Sparse-refresh construction: the plan drives refresh(const CsrMatrix&).
  explicit BlockJacobiPreconditioner(std::shared_ptr<const Plan> plan);
  /// Structure-only construction for the dense refresh: no CSR scatter map,
  /// just the block boundaries.
  explicit BlockJacobiPreconditioner(std::vector<Index> block_ptr);

  /// In-pattern numeric refresh: zero the packed blocks, scatter A's values
  /// through the plan, factor. Requires the Plan constructor.
  void refresh(const CsrMatrix& a);
  /// Dense refresh: gathers the blocks directly (the reference the sparse
  /// plan is checked against).
  void refresh(const DenseMatrix& a);

  /// Number of blocks whose Cholesky broke down and run on their diagonal.
  [[nodiscard]] Index fallback_blocks() const;

  void apply(const std::vector<Real>& r, std::vector<Real>& z) const override;

 private:
  void factor_packed();

  std::vector<Index> block_ptr_;
  std::vector<Index> packed_offset_;
  std::shared_ptr<const Plan> plan_;       ///< null for structure-only construction
  AlignedVector<Real> packed_;             ///< Cholesky factors after refresh
  std::vector<Real> diag_;                 ///< pre-factor diagonal (breakdown fallback)
  std::vector<std::uint8_t> diag_only_;    ///< per-block breakdown flag
};

}  // namespace parma::linalg
