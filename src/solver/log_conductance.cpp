#include "solver/log_conductance.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "linalg/laplacian.hpp"

namespace parma::solver {

LogConductanceOperator::LogConductanceOperator(const circuit::ResistanceGrid& grid)
    : m_(grid.rows()), n_(grid.cols()), z_(grid.rows(), grid.cols()) {
  const circuit::ResistorNetwork network = circuit::build_crossbar_network(grid);
  const std::vector<linalg::WeightedEdge> edges = network.weighted_edges();
  c_.reserve(edges.size());
  for (const linalg::WeightedEdge& edge : edges) {
    PARMA_REQUIRE(std::isfinite(edge.conductance) && edge.conductance > 0.0,
                  "conductances must be finite and positive");
    c_.push_back(edge.conductance);
  }
  const linalg::EffectiveResistance oracle(network.num_nodes(), edges);
  for (Index i = 0; i < m_; ++i) {
    for (Index j = 0; j < n_; ++j) {
      z_(i, j) = oracle.between(circuit::horizontal_node(i), circuit::vertical_node(m_, j));
    }
  }
  const Index nodes = network.num_nodes();
  const linalg::DenseMatrix& reduced = oracle.grounded_inverse();
  g_ = linalg::DenseMatrix(nodes, nodes);
  for (Index a = 1; a < nodes; ++a) {
    for (Index b = 1; b < nodes; ++b) g_(a, b) = reduced(a - 1, b - 1);
  }
}

void LogConductanceOperator::multiply_into(const std::vector<Real>& x,
                                           std::vector<Real>& y) const {
  PARMA_REQUIRE(x.size() == c_.size(), "operator input size mismatch");
  const std::size_t m = static_cast<std::size_t>(m_);
  const std::size_t n = static_cast<std::size_t>(n_);
  const std::size_t nodes = m + n;
  w_.resize(m * n);
  wt_.resize(m * n);
  degree_.assign(nodes, 0.0);
  y_.resize(nodes * nodes);
  x_hv_.resize(m * n);
  x_diag_.resize(nodes);
  y.resize(m * n);

  // L_w for w = c o x: the bipartite block W (m x n), its transpose, and the
  // node degrees on the diagonal.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const Real w = c_[i * n + j] * x[i * n + j];
      w_[i * n + j] = w;
      wt_[j * m + i] = w;
      degree_[i] += w;
      degree_[m + j] += w;
    }
  }

  // Y = G L_w, one row at a time:
  //   Y[a, h_i] = G[a, h_i] deg_i - sum_j G[a, v_j] W[i, j],
  //   Y[a, v_j] = G[a, v_j] deg_j - sum_i G[a, h_i] W[i, j].
  const Real* g = g_.data().data();
  for (std::size_t a = 0; a < nodes; ++a) {
    const Real* ga = g + a * nodes;
    Real* ya = y_.data() + a * nodes;
    for (std::size_t k = 0; k < nodes; ++k) ya[k] = ga[k] * degree_[k];
    for (std::size_t j = 0; j < n; ++j) {
      const Real gv = ga[m + j];
      const Real* wtj = wt_.data() + j * m;
      for (std::size_t i = 0; i < m; ++i) ya[i] -= gv * wtj[i];
    }
    Real* yv = ya + m;
    for (std::size_t i = 0; i < m; ++i) {
      const Real gh = ga[i];
      const Real* wi = w_.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) yv[j] -= gh * wi[j];
    }
  }

  // X = Y G, of which the product reads only the H x V block and the
  // diagonal (G is symmetric, so X_aa is row a of Y against row a of G).
  std::fill(x_hv_.begin(), x_hv_.end(), 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const Real* yi = y_.data() + i * nodes;
    Real* xi = x_hv_.data() + i * n;
    for (std::size_t k = 0; k < nodes; ++k) {
      const Real yk = yi[k];
      const Real* gk = g + k * nodes + m;
      for (std::size_t j = 0; j < n; ++j) xi[j] += yk * gk[j];
    }
  }
  for (std::size_t a = 0; a < nodes; ++a) {
    const Real* ya = y_.data() + a * nodes;
    const Real* ga = g + a * nodes;
    Real sum = 0.0;
    for (std::size_t k = 0; k < nodes; ++k) sum += ya[k] * ga[k];
    x_diag_[a] = sum;
  }

  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t e = i * n + j;
      y[e] = c_[e] * (x_diag_[i] + x_diag_[m + j] - 2.0 * x_hv_[e]);
    }
  }
}

void LogConductanceOperator::diagonal_into(std::vector<Real>& d) const {
  d.resize(c_.size());
  for (std::size_t e = 0; e < c_.size(); ++e) {
    const Real cz = c_[e] * z_.data()[e];
    d[e] = cz * cz;
  }
}

DampedNormalOperator::DampedNormalOperator(const LogConductanceOperator& a, Real lambda)
    : a_(a), lambda_(lambda) {
  a_.diagonal_into(leading_);
  for (std::size_t e = 0; e < leading_.size(); ++e) {
    leading_[e] *= a_.z().data()[e] * a_.z().data()[e];
  }
}

void DampedNormalOperator::multiply_into(const std::vector<Real>& x,
                                         std::vector<Real>& y) const {
  a_.multiply_into(x, t_);
  const std::vector<Real>& c = a_.conductance();
  for (std::size_t e = 0; e < t_.size(); ++e) t_[e] /= c[e] * c[e];
  a_.multiply_into(t_, y);
  for (std::size_t e = 0; e < y.size(); ++e) y[e] += lambda_ * leading_[e] * x[e];
}

void DampedNormalOperator::diagonal_into(std::vector<Real>& d) const {
  d.resize(leading_.size());
  for (std::size_t e = 0; e < d.size(); ++e) d[e] = (1.0 + lambda_) * leading_[e];
}

}  // namespace parma::solver
