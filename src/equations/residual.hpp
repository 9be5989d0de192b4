// Residual and analytic sparse Jacobian of the joint-constraint system.
//
// With the unknown vector x = [R | pair voltages], every equation is a sum of
// branch-current terms sign*(c + x_p - x_q)/x_r minus its rhs. The system is
// nonlinear only through the 1/x_r factors; the Jacobian entries are
//   d/dx_p =  sign / x_r
//   d/dx_q = -sign / x_r
//   d/dx_r = -sign (c + x_p - x_q) / x_r^2
// assembled sparsely (each equation touches O(m + n) unknowns).
#pragma once

#include <vector>

#include "equations/generator.hpp"
#include "linalg/sparse_matrix.hpp"

namespace parma::equations {

/// Value of one term at x.
Real term_value(const CurrentTerm& term, const std::vector<Real>& x);

/// residual_e(x) = sum of terms - rhs, for one equation.
Real equation_residual(const JointEquation& eq, const std::vector<Real>& x);

/// Full residual vector, equation order preserved.
std::vector<Real> system_residual(const EquationSystem& system, const std::vector<Real>& x);

/// Sparse Jacobian at x (rows = equations, cols = unknowns). Entries whose
/// value is exactly zero are dropped, so the pattern depends on x.
linalg::CsrMatrix system_jacobian(const EquationSystem& system, const std::vector<Real>& x);

/// Builds the unknown vector from a known resistance grid and exact pair
/// voltages (test helper: a consistent x should zero the residual).
std::vector<Real> pack_unknowns(const UnknownLayout& layout,
                                const std::vector<Real>& resistances,
                                const std::vector<Real>& pair_voltages);

}  // namespace parma::equations
