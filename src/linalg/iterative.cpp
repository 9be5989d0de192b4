#include "linalg/iterative.hpp"

namespace parma::linalg {

IterativeResult conjugate_gradient(const CsrMatrix& a, const std::vector<Real>& b,
                                   const IterativeOptions& options,
                                   std::vector<Real> x0) {
  CgWorkspace workspace;
  return conjugate_gradient_with(SerialCsrOperator(a), b, options, workspace, std::move(x0));
}

}  // namespace parma::linalg
