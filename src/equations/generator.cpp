#include "equations/generator.hpp"

#include "common/require.hpp"

namespace parma::equations {

std::vector<Index> EquationSystem::category_census() const {
  std::vector<Index> census(kNumCategories, 0);
  for (const auto& eq : equations) {
    ++census[static_cast<std::size_t>(eq.category)];
  }
  return census;
}

std::uint64_t EquationSystem::footprint_bytes() const {
  std::uint64_t total = 0;
  for (const auto& eq : equations) total += eq.footprint_bytes();
  return total;
}

std::vector<JointEquation> generate_pair_equations(const UnknownLayout& layout,
                                                   const mea::Measurement& measurement,
                                                   Index i, Index j) {
  const Index rows = layout.rows();
  const Index cols = layout.cols();
  PARMA_REQUIRE(i >= 0 && i < rows && j >= 0 && j < cols, "pair endpoint out of range");
  const Real u = measurement.u(i, j);
  // A masked pair contributes no terminal equations (the only two that read
  // Z), so its Z entry -- possibly a NaN placeholder -- is never touched.
  const bool masked = !mea::entry_valid(measurement, i, j);

  std::vector<JointEquation> eqs;
  eqs.reserve(static_cast<std::size_t>((masked ? 0 : 2) + (cols - 1) + (rows - 1)));

  // --- Source joint: U/Z = U/R_ij + sum_k (U - Ua_k)/R_ik -------------------
  if (!masked) {
    const Real z = measurement.z(i, j);
    PARMA_REQUIRE(z > 0.0, "measured Z must be positive");
    {
      JointEquation eq;
      eq.category = ConstraintCategory::kSource;
      eq.pair_i = i;
      eq.pair_j = j;
      eq.rhs = u / z;
      eq.terms.push_back({layout.r_index(i, j), u, -1, -1, 1.0});
      for (Index k = 0; k < cols; ++k) {
        if (k == j) continue;
        eq.terms.push_back({layout.r_index(i, k), u, -1, layout.ua_index(i, j, k), 1.0});
      }
      eqs.push_back(std::move(eq));
    }

    // --- Destination joint: U/Z = U/R_ij + sum_m Ub_m/R_mj ------------------
    {
      JointEquation eq;
      eq.category = ConstraintCategory::kDestination;
      eq.pair_i = i;
      eq.pair_j = j;
      eq.rhs = u / z;
      eq.terms.push_back({layout.r_index(i, j), u, -1, -1, 1.0});
      for (Index m = 0; m < rows; ++m) {
        if (m == i) continue;
        eq.terms.push_back({layout.r_index(m, j), 0.0, layout.ub_index(i, j, m), -1, 1.0});
      }
      eqs.push_back(std::move(eq));
    }
  }

  // --- Near-source joints (Ua): (U - Ua_k)/R_ik = sum_m (Ua_k - Ub_m)/R_mk --
  for (Index k = 0; k < cols; ++k) {
    if (k == j) continue;
    JointEquation eq;
    eq.category = ConstraintCategory::kNearSource;
    eq.pair_i = i;
    eq.pair_j = j;
    eq.rhs = 0.0;
    const Index ua = layout.ua_index(i, j, k);
    // Inflow from the source, moved to the LHS with negative sign.
    eq.terms.push_back({layout.r_index(i, k), u, -1, ua, -1.0});
    for (Index m = 0; m < rows; ++m) {
      if (m == i) continue;
      eq.terms.push_back({layout.r_index(m, k), 0.0, ua, layout.ub_index(i, j, m), 1.0});
    }
    eqs.push_back(std::move(eq));
  }

  // --- Near-destination joints (Ub): Ub_m/R_mj = sum_k (Ua_k - Ub_m)/R_mk ---
  for (Index m = 0; m < rows; ++m) {
    if (m == i) continue;
    JointEquation eq;
    eq.category = ConstraintCategory::kNearDestination;
    eq.pair_i = i;
    eq.pair_j = j;
    eq.rhs = 0.0;
    const Index ub = layout.ub_index(i, j, m);
    // Outflow toward the destination, on the LHS with negative sign.
    eq.terms.push_back({layout.r_index(m, j), 0.0, ub, -1, -1.0});
    for (Index k = 0; k < cols; ++k) {
      if (k == j) continue;
      eq.terms.push_back({layout.r_index(m, k), 0.0, layout.ua_index(i, j, k), ub, 1.0});
    }
    eqs.push_back(std::move(eq));
  }

  return eqs;
}

Index expected_equation_count(const mea::Measurement& measurement) {
  return measurement.spec.num_equations() - 2 * mea::masked_entry_count(measurement);
}

EquationSystem generate_system(const mea::Measurement& measurement) {
  measurement.spec.validate();
  EquationSystem system{UnknownLayout(measurement.spec), {}};
  system.equations.reserve(static_cast<std::size_t>(expected_equation_count(measurement)));
  for (Index i = 0; i < measurement.spec.rows; ++i) {
    for (Index j = 0; j < measurement.spec.cols; ++j) {
      std::vector<JointEquation> pair_eqs =
          generate_pair_equations(system.layout, measurement, i, j);
      for (auto& eq : pair_eqs) system.equations.push_back(std::move(eq));
    }
  }
  PARMA_REQUIRE(static_cast<Index>(system.equations.size()) ==
                    expected_equation_count(measurement),
                "equation census mismatch");
  return system;
}

}  // namespace parma::equations
