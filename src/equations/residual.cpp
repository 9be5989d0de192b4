#include "equations/residual.hpp"

#include "common/require.hpp"

namespace parma::equations {
namespace {

/// The three partial derivatives of one term at x.
struct TermPartials {
  Real d_plus = 0.0;      ///< d/dx_p  =  sign / x_r       (valid if plus_unknown >= 0)
  Real d_minus = 0.0;     ///< d/dx_q  = -sign / x_r       (valid if minus_unknown >= 0)
  Real d_resistor = 0.0;  ///< d/dx_r  = -sign (c + x_p - x_q) / x_r^2
};

TermPartials term_partials(const CurrentTerm& term, const std::vector<Real>& x) {
  const Real r = x[static_cast<std::size_t>(term.resistor_unknown)];
  PARMA_REQUIRE(r != 0.0, "zero resistance in Jacobian");
  Real numerator = term.constant;
  if (term.plus_unknown >= 0) numerator += x[static_cast<std::size_t>(term.plus_unknown)];
  if (term.minus_unknown >= 0) numerator -= x[static_cast<std::size_t>(term.minus_unknown)];
  TermPartials p;
  p.d_plus = term.sign / r;
  p.d_minus = -term.sign / r;
  p.d_resistor = -term.sign * numerator / (r * r);
  return p;
}

}  // namespace

Real term_value(const CurrentTerm& term, const std::vector<Real>& x) {
  PARMA_ASSERT(term.resistor_unknown >= 0 &&
               term.resistor_unknown < static_cast<Index>(x.size()));
  Real numerator = term.constant;
  if (term.plus_unknown >= 0) numerator += x[static_cast<std::size_t>(term.plus_unknown)];
  if (term.minus_unknown >= 0) numerator -= x[static_cast<std::size_t>(term.minus_unknown)];
  const Real r = x[static_cast<std::size_t>(term.resistor_unknown)];
  PARMA_REQUIRE(r != 0.0, "zero resistance in term evaluation");
  return term.sign * numerator / r;
}

Real equation_residual(const JointEquation& eq, const std::vector<Real>& x) {
  Real sum = -eq.rhs;
  for (const auto& term : eq.terms) sum += term_value(term, x);
  return sum;
}

std::vector<Real> system_residual(const EquationSystem& system, const std::vector<Real>& x) {
  PARMA_REQUIRE(static_cast<Index>(x.size()) == system.layout.num_unknowns(),
                "unknown vector size mismatch");
  std::vector<Real> r;
  r.reserve(system.equations.size());
  for (const auto& eq : system.equations) r.push_back(equation_residual(eq, x));
  return r;
}

linalg::CsrMatrix system_jacobian(const EquationSystem& system, const std::vector<Real>& x) {
  PARMA_REQUIRE(static_cast<Index>(x.size()) == system.layout.num_unknowns(),
                "unknown vector size mismatch");
  linalg::CooBuilder builder(static_cast<Index>(system.equations.size()),
                             system.layout.num_unknowns());
  for (std::size_t row = 0; row < system.equations.size(); ++row) {
    for (const auto& term : system.equations[row].terms) {
      const TermPartials p = term_partials(term, x);
      const Index row_idx = static_cast<Index>(row);
      if (term.plus_unknown >= 0) builder.add(row_idx, term.plus_unknown, p.d_plus);
      if (term.minus_unknown >= 0) builder.add(row_idx, term.minus_unknown, p.d_minus);
      builder.add(row_idx, term.resistor_unknown, p.d_resistor);
    }
  }
  return builder.build();
}

std::vector<Real> pack_unknowns(const UnknownLayout& layout,
                                const std::vector<Real>& resistances,
                                const std::vector<Real>& pair_voltages) {
  PARMA_REQUIRE(static_cast<Index>(resistances.size()) == layout.num_resistors(),
                "resistance vector size mismatch");
  PARMA_REQUIRE(static_cast<Index>(pair_voltages.size()) ==
                    layout.num_pairs() * layout.voltages_per_pair(),
                "pair voltage vector size mismatch");
  std::vector<Real> x;
  x.reserve(static_cast<std::size_t>(layout.num_unknowns()));
  x.insert(x.end(), resistances.begin(), resistances.end());
  x.insert(x.end(), pair_voltages.begin(), pair_voltages.end());
  return x;
}

}  // namespace parma::equations
