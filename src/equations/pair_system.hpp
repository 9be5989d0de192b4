// Per-pair linear solve and forward model.
//
// For a FIXED resistance grid the joint equations of one endpoint pair are
// linear in that pair's Ua/Ub voltages: the interior KCL equations form a
// symmetric positive-definite system of size (n-1) + (m-1). Solving it gives
//  * the pair's internal wire voltages,
//  * the model impedance Z_model(i, j) = U / I_source,
//  * every branch current, and
//  * via the classical adjoint identity dR_eff/dR_e = (i_e / I)^2, the exact
//    gradient of Z_model with respect to every resistance -- the Jacobian of
//    the Levenberg-Marquardt inverse solver.
//
// This is also the executable proof that the joint-constraint formulation is
// lossless: tests assert Z_model == the Laplacian effective resistance to
// machine precision for random grids.
#pragma once

#include <vector>

#include "circuit/crossbar.hpp"
#include "linalg/dense_matrix.hpp"
#include "mea/device.hpp"

namespace parma::equations {

struct PairSolution {
  Index i = 0;
  Index j = 0;
  Real drive_voltage = 0.0;
  std::vector<Real> ua;      ///< potentials of vertical wires k != j (k' order)
  std::vector<Real> ub;      ///< potentials of horizontal wires m != i (m' order)
  Real source_current = 0.0; ///< total current leaving wire i
  Real z_model = 0.0;        ///< U / source_current

  /// Potential of horizontal wire m under this pair's drive.
  [[nodiscard]] Real horizontal_potential(Index m) const;
  /// Potential of vertical wire k under this pair's drive.
  [[nodiscard]] Real vertical_potential(Index k) const;
};

/// Solves the pair's interior KCL system for grid `r` with `volts` across
/// (i, j). Throws NumericalError if the local system is singular (cannot
/// happen for positive resistances).
PairSolution solve_pair(const circuit::ResistanceGrid& r, Index i, Index j, Real volts);

/// Z_model for every pair; must agree with circuit::measure_all_pairs.
linalg::DenseMatrix forward_model(const circuit::ResistanceGrid& r, Real volts);

/// dZ(i,j)/dR(x,y) for all (x,y), flattened row-major: the adjoint identity
/// (branch_current / source_current)^2.
std::vector<Real> impedance_gradient(const circuit::ResistanceGrid& r,
                                     const PairSolution& pair);

}  // namespace parma::equations
