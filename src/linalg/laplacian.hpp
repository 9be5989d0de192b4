// Weighted-graph Laplacians and two-point effective resistance.
//
// With ideal wires, an n x n MEA crossbar is electrically the complete
// bipartite resistor network K_{n,n}; the measured pairwise resistance Z_ij
// is exactly the effective resistance between the wire nodes h_i and v_j.
// This header provides the independent reference implementation the
// joint-constraint formulation is validated against.
#pragma once

#include <vector>

#include "linalg/dense_matrix.hpp"
#include "linalg/sparse_matrix.hpp"

namespace parma::linalg {

/// An undirected weighted edge; weight is the *conductance* (1/R).
struct WeightedEdge {
  Index u = 0;
  Index v = 0;
  Real conductance = 0.0;
};

/// Dense Laplacian L with L(u,u) += w, L(u,v) -= w per edge.
DenseMatrix build_dense_laplacian(Index num_nodes, const std::vector<WeightedEdge>& edges);

/// Sparse (CSR) Laplacian.
CsrMatrix build_sparse_laplacian(Index num_nodes, const std::vector<WeightedEdge>& edges);

/// Effective-resistance oracle: factors the grounded Laplacian once and then
/// answers R_eff(s, t) queries in O(1) via the cached pseudo-inverse Gram
/// identity R_eff(s,t) = M_ss + M_tt - 2 M_st, where M is the inverse of the
/// Laplacian with the ground row/column removed.
///
/// Requires the graph to be connected; throws NumericalError otherwise.
class EffectiveResistance {
 public:
  EffectiveResistance(Index num_nodes, const std::vector<WeightedEdge>& edges);

  /// Two-point effective resistance between nodes s and t.
  [[nodiscard]] Real between(Index s, Index t) const;

  /// Node potentials when unit current enters at s and leaves at t, with the
  /// ground node at potential 0 (useful for Kirchhoff-law validation).
  [[nodiscard]] std::vector<Real> potentials(Index s, Index t) const;

  [[nodiscard]] Index num_nodes() const { return num_nodes_; }

  /// The factorization's product: the inverse of the Laplacian with node 0's
  /// row and column removed, (N-1) x (N-1); entry (a-1, b-1) belongs to nodes
  /// a and b. Its Gram identity above gives every R_eff, and it is the G of
  /// the recovery's Jacobian products (solver/log_conductance.hpp).
  [[nodiscard]] const DenseMatrix& grounded_inverse() const { return reduced_inverse_; }

 private:
  [[nodiscard]] Real m_entry(Index a, Index b) const;

  Index num_nodes_ = 0;
  // Inverse of the reduced Laplacian (ground = node 0 removed), size N-1.
  DenseMatrix reduced_inverse_;
};

}  // namespace parma::linalg
