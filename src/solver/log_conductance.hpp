// The Newton operator of the recovery on log-conductance, matrix-free.
//
// With c = 1/R and B the incidence matrix of the crossbar's K_{m,n} (edge
// e = (i, j) joins wire nodes h_i and v_j), the Laplacian is
// L = B diag(c) B^T and every measured impedance is a two-point effective
// resistance, Z_e = b_e^T L^+ b_e. Differentiating gives
// dZ_e / dc_f = -(b_e^T L^+ b_f)^2, so on u = ln c the Newton system of
// Z(c) = Z_meas is the square, symmetric positive (semi)definite
//
//   A delta = D_c (Z(c) - Z_meas),   A = D_c (M o M) D_c,   M = B^T L^+ B,
//
// with o the Hadamard product (M o M is PSD by the Schur product theorem).
// A is symmetric because the measured pairs are exactly the edges, and
// A = D_c J, where J = (M o M) D_c is the log-resistance Jacobian dZ/d ln R
// that equations::impedance_gradient gives one pair at a time.
//
// A is never formed. For any weights w, (M o M) w = diag(B^T G L_w G B) with
// the weighted Laplacian L_w = B diag(w) B^T and G the grounded inverse of
// L, so
//
//   (A x)_e = c_e (X_hh + X_vv - 2 X_hv),   X = G L_{c o x} G,
//
// about 3 (m+n) m n multiply-adds per product, against the n^2 x n^2 matrix
// a dense Jacobian would hold. The Jacobi diagonal is c_e^2 Z_e^2, because
// M_ee = Z_e.
//
// The same products give the Gauss-Newton normal matrix of the least-squares
// misfit: the Jacobian of Z in u is -(M o M) D_c = -D_c^{-1} A, so
// J^T J = A D_c^{-2} A and -J^T (Z - Z_meas) = A D_c^{-1} (Z - Z_meas).
// DampedNormalOperator applies it with Levenberg-Marquardt damping.
#pragma once

#include <vector>

#include "circuit/crossbar.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace parma::solver {

/// A at one iterate, built from one factorization of its grounded Laplacian.
/// Satisfies the operator interface of linalg::conjugate_gradient_with.
class LogConductanceOperator {
 public:
  /// Factors the grounded Laplacian of `grid` once (linalg::EffectiveResistance,
  /// node h_0 grounded). Throws ContractError unless every conductance 1/R is
  /// finite and positive, and NumericalError if the factorization fails.
  explicit LogConductanceOperator(const circuit::ResistanceGrid& grid);

  /// Model impedances Z(c) of every measured pair (m x n), from the same
  /// factorization.
  [[nodiscard]] const linalg::DenseMatrix& z() const { return z_; }

  /// Conductances c = 1/R, row-major like the grid.
  [[nodiscard]] const std::vector<Real>& conductance() const { return c_; }

  /// Unknowns: one log-conductance per resistor (m * n).
  [[nodiscard]] Index rows() const { return static_cast<Index>(c_.size()); }

  /// y = A x. Works in scratch the operator owns, so one operator serves one
  /// caller at a time.
  void multiply_into(const std::vector<Real>& x, std::vector<Real>& y) const;

  /// d = diag(A) = c^2 Z^2.
  void diagonal_into(std::vector<Real>& d) const;

  [[nodiscard]] Real dot(const std::vector<Real>& a, const std::vector<Real>& b,
                         std::vector<Real>& partials) const {
    return linalg::ordered_dot(a, b, partials);
  }

 private:
  Index m_ = 0;                 ///< horizontal wires
  Index n_ = 0;                 ///< vertical wires
  std::vector<Real> c_;         ///< conductances, row-major
  linalg::DenseMatrix g_;       ///< (m+n)^2 grounded inverse; h_0's row and column are 0
  linalg::DenseMatrix z_;       ///< Z(c)

  // multiply_into's scratch: L_w's bipartite block, its transpose and its
  // degrees, Y = G L_w, and the parts of X = Y G the product reads.
  mutable std::vector<Real> w_;
  mutable std::vector<Real> wt_;
  mutable std::vector<Real> degree_;
  mutable std::vector<Real> y_;
  mutable std::vector<Real> x_hv_;
  mutable std::vector<Real> x_diag_;
};

/// J^T J + lambda D at one iterate, two products of A per product. D is the
/// leading term of diag(J^T J), D_e = (c_e Z_e^2)^2 (M_ee = Z_e), so the
/// damping scales with the data like Marquardt's; inline Jacobi uses
/// (1 + lambda) D. Satisfies the operator interface of
/// linalg::conjugate_gradient_with; `a` must outlive it.
class DampedNormalOperator {
 public:
  DampedNormalOperator(const LogConductanceOperator& a, Real lambda);

  [[nodiscard]] Index rows() const { return a_.rows(); }

  /// y = A D_c^{-2} A x + lambda D x.
  void multiply_into(const std::vector<Real>& x, std::vector<Real>& y) const;

  /// d = (1 + lambda) D.
  void diagonal_into(std::vector<Real>& d) const;

  [[nodiscard]] Real dot(const std::vector<Real>& a, const std::vector<Real>& b,
                         std::vector<Real>& partials) const {
    return linalg::ordered_dot(a, b, partials);
  }

 private:
  const LogConductanceOperator& a_;
  Real lambda_ = 0.0;
  std::vector<Real> leading_;    ///< D
  mutable std::vector<Real> t_;  ///< D_c^{-2} A x
};

}  // namespace parma::solver
