// Joint-constraint equation generation (the MEA component of the paper's
// implementation: "converts the original exponential all-pair-path problems
// into polynomial ones").
//
// For every endpoint pair (i, j) of an m x n device the generator emits the
// 2 + (n-1) + (m-1) Kirchhoff current-law equations of Section IV-A over the
// unknown layout of layout.hpp. The full system for a square device has 2n^3
// equations in (2n-1) n^2 unknowns.
#pragma once

#include <vector>

#include "equations/equation.hpp"
#include "equations/layout.hpp"
#include "mea/measurement.hpp"

namespace parma::equations {

/// The assembled system plus its layout and census.
struct EquationSystem {
  UnknownLayout layout;
  std::vector<JointEquation> equations;

  /// Number of equations per constraint category.
  [[nodiscard]] std::vector<Index> category_census() const;

  /// Total modeled heap footprint of the equation objects.
  [[nodiscard]] std::uint64_t footprint_bytes() const;
};

/// Equations of a single endpoint pair, in category order: source,
/// destination, the (n-1) near-source joints, the (m-1) near-destination
/// joints. When the pair's Z entry is masked out, the source and destination
/// equations (the only two that consume Z) are omitted; the interior joints
/// remain -- (n-1) + (m-1) equations for the pair's (n-1) + (m-1) voltage
/// unknowns, so the pair's voltage system stays square given R.
std::vector<JointEquation> generate_pair_equations(const UnknownLayout& layout,
                                                   const mea::Measurement& measurement,
                                                   Index i, Index j);

/// Equation count the measurement's mask leaves standing: the full census
/// minus two terminal equations per masked pair.
[[nodiscard]] Index expected_equation_count(const mea::Measurement& measurement);

/// The whole system, pairs in row-major order.
EquationSystem generate_system(const mea::Measurement& measurement);

}  // namespace parma::equations
