// Solver hot-path bench: the symbolic/numeric kernel refresh and the
// block-Jacobi preconditioner of the full-system Gauss-Newton solve.
//
// Claims under test (gated at n >= 16):
//   * assembly   refreshing J and A = J^T J in place through the precomputed
//                pattern + scatter map is >= 2x faster than rebuilding them
//                through equations::system_jacobian + reference_normal_matrix
//                (bit-identical results, asserted in tests/test_kernels.cpp,
//                not here);
//   * CG         on the first Gauss-Newton step's normal equations, CG with
//                the block-Jacobi preconditioner needs >= 2x fewer iterations
//                than unpreconditioned CG (IdentityPreconditioner).
//
// Every size also records, ungated: inline-Jacobi CG iterations on the same
// step, and the wall time and CG total of a fixed-budget default
// solve_full_system (3 outer iterations).
//
// Output: pretty table + CSV via bench_util, and
// bench_results/solver_hotpath.json with speedups and iteration counts.
// `--quick` trims the sweep to {8, 16} for CI (scripts/check.sh); the
// default sweep is {8, 16, 32} (A = J^T J has ~134M nonzeros at n = 32 and
// stops being formable beyond that).
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "equations/residual.hpp"
#include "linalg/iterative.hpp"
#include "solver/full_system_solver.hpp"
#include "solver/system_kernels.hpp"

using namespace parma;

namespace {

struct HotpathResult {
  Index n = 0;
  Index equations = 0;
  Index unknowns = 0;
  std::size_t j_nnz = 0;
  std::size_t a_nnz = 0;
  Real symbolic_seconds = 0.0;  ///< one-time analyze() cost (amortized away)

  // Per-iteration assembly comparison.
  Real reference_seconds = 0.0;    ///< system_jacobian + reference_normal_matrix
  Real kernel_seconds = 0.0;       ///< serial kernel refresh
  Real kernel_mt_seconds = 0.0;    ///< parallel kernel refresh
  Real assembly_speedup = 0.0;     ///< reference / kernel (serial)
  Real assembly_speedup_mt = 0.0;  ///< reference / kernel-mt

  // CG on the first Gauss-Newton step's normal equations.
  Real identity_cg_seconds = 0.0;
  Real jacobi_cg_seconds = 0.0;
  Real block_cg_seconds = 0.0;  ///< includes the block refresh
  Index identity_cg_iterations = 0;
  Index jacobi_cg_iterations = 0;
  Index block_cg_iterations = 0;
  Real cg_iteration_reduction = 0.0;  ///< unpreconditioned / block-Jacobi

  // Default solve_full_system with a fixed outer budget.
  Real solve_seconds = 0.0;
  Index solve_cg_iterations = 0;
};

// Best-of-repeats per-iteration wall time of `body` run `iters` times.
template <typename Body>
Real time_per_iteration(int repeats, int iters, const Body& body) {
  Real best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch clock;
    for (int i = 0; i < iters; ++i) body();
    const Real per_iter = clock.elapsed_seconds() / static_cast<Real>(iters);
    if (r == 0 || per_iter < best) best = per_iter;
  }
  return best;
}

HotpathResult run_size(Index n, int repeats, int iters) {
  core::Engine engine = bench::make_engine(n);
  const equations::EquationSystem system =
      equations::generate_system(engine.measurement());
  const std::vector<Real> x = solver::initial_guess(system, engine.measurement());
  const std::vector<Real> residual = equations::system_residual(system, x);

  HotpathResult result;
  result.n = n;
  result.equations = static_cast<Index>(system.equations.size());
  result.unknowns = system.layout.num_unknowns();

  Stopwatch analyze_clock;
  const auto symbolic = solver::SystemSymbolic::analyze(system);
  result.symbolic_seconds = analyze_clock.elapsed_seconds();
  result.j_nnz = symbolic->j_nnz();
  result.a_nnz = symbolic->a_nnz();

  // Reference per-iteration assembly: rebuild J, form J^T J through the COO
  // triple loop, allocate the transpose product.
  std::vector<Real> sink;
  result.reference_seconds = time_per_iteration(repeats, iters, [&] {
    const linalg::CsrMatrix jac = equations::system_jacobian(system, x);
    const linalg::CsrMatrix jtj = solver::reference_normal_matrix(jac);
    sink = jac.multiply_transpose(residual);
    PARMA_REQUIRE(jtj.rows() == result.unknowns, "bench sanity");
  });

  // Kernel refresh, serial.
  solver::SystemKernels kernels(system, symbolic);
  result.kernel_seconds = time_per_iteration(repeats, iters, [&] {
    kernels.refresh(x);
    kernels.jacobian().multiply_transpose_into(residual, sink);
  });

  // Kernel refresh, work-stealing executor.
  const auto executor = exec::make_executor(exec::Backend::kStealing, 4);
  result.kernel_mt_seconds = time_per_iteration(repeats, iters, [&] {
    kernels.refresh(x, executor.get());
    kernels.jacobian().multiply_transpose_into(residual, sink);
  });

  result.assembly_speedup = result.reference_seconds / result.kernel_seconds;
  result.assembly_speedup_mt = result.reference_seconds / result.kernel_mt_seconds;

  // First Gauss-Newton step: A delta = -J^T r at the initial guess (the
  // kernels were last refreshed at x). n = 32's normal matrix has ~134M
  // nonzeros, so cap CG where one solve would otherwise dominate the bench;
  // a count that hits the cap makes the reduction a lower bound.
  std::vector<Real> rhs;
  kernels.jacobian().multiply_transpose_into(residual, rhs);
  for (Real& v : rhs) v = -v;
  linalg::IterativeOptions cg;
  cg.max_iterations = n >= 32 ? 800 : 2000;
  cg.tolerance = 1e-10;
  const solver::ParallelCsrOperator op(kernels.normal(), nullptr, &kernels.padded_normal());
  linalg::CgWorkspace ws;
  {
    const linalg::IdentityPreconditioner identity;
    Stopwatch clock;
    result.identity_cg_iterations =
        linalg::conjugate_gradient_with(op, rhs, cg, ws, &identity).iterations;
    result.identity_cg_seconds = clock.elapsed_seconds();
  }
  {
    Stopwatch clock;
    result.jacobi_cg_iterations = linalg::conjugate_gradient_with(op, rhs, cg, ws).iterations;
    result.jacobi_cg_seconds = clock.elapsed_seconds();
  }
  {
    Stopwatch clock;
    linalg::BlockJacobiPreconditioner block(symbolic->block_plan);
    block.refresh(kernels.normal());
    result.block_cg_iterations =
        linalg::conjugate_gradient_with(op, rhs, cg, ws, &block).iterations;
    result.block_cg_seconds = clock.elapsed_seconds();
  }
  result.cg_iteration_reduction =
      static_cast<Real>(result.identity_cg_iterations) /
      static_cast<Real>(std::max<Index>(result.block_cg_iterations, 1));

  // The default solve end to end: 3 outer iterations, CG to 1e-10.
  solver::FullSystemOptions options;
  options.max_iterations = 3;
  options.tolerance = 0.0;  // spend the full outer budget
  options.cg_max_iterations = cg.max_iterations;
  options.cg_tolerance = cg.tolerance;
  solver::KernelContext context;
  context.symbolic = symbolic;
  Stopwatch solve_clock;
  const solver::FullSystemResult solved =
      solver::solve_full_system(system, engine.measurement(), options, context);
  result.solve_seconds = solve_clock.elapsed_seconds();
  result.solve_cg_iterations = solved.diagnostics.cg_iterations;
  return result;
}

void write_json(const std::vector<HotpathResult>& results, const std::string& path) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream os(path);
  os << "{\n  \"bench\": \"solver_hotpath\",\n  \"target_assembly_speedup\": 2.0,\n"
     << "  \"target_cg_iteration_reduction\": 2.0,\n"
     << "  \"target_n\": 16,\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const HotpathResult& r = results[i];
    os << "    {\"n\": " << r.n << ", \"equations\": " << r.equations
       << ", \"unknowns\": " << r.unknowns << ", \"j_nnz\": " << r.j_nnz
       << ", \"a_nnz\": " << r.a_nnz << ", \"symbolic_seconds\": " << r.symbolic_seconds
       << ", \"reference_assembly_seconds\": " << r.reference_seconds
       << ", \"kernel_refresh_seconds\": " << r.kernel_seconds
       << ", \"kernel_refresh_mt_seconds\": " << r.kernel_mt_seconds
       << ", \"assembly_speedup\": " << r.assembly_speedup
       << ", \"assembly_speedup_mt\": " << r.assembly_speedup_mt
       << ", \"first_step_unpreconditioned_cg_seconds\": " << r.identity_cg_seconds
       << ", \"first_step_jacobi_cg_seconds\": " << r.jacobi_cg_seconds
       << ", \"first_step_block_jacobi_cg_seconds\": " << r.block_cg_seconds
       << ", \"first_step_unpreconditioned_cg_iterations\": " << r.identity_cg_iterations
       << ", \"first_step_jacobi_cg_iterations\": " << r.jacobi_cg_iterations
       << ", \"first_step_block_jacobi_cg_iterations\": " << r.block_cg_iterations
       << ", \"cg_iteration_reduction\": " << r.cg_iteration_reduction
       << ", \"solve_seconds\": " << r.solve_seconds
       << ", \"solve_cg_iterations\": " << r.solve_cg_iterations << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::vector<Index> sweep =
      quick ? std::vector<Index>{8, 16} : std::vector<Index>{8, 16, 32};
  const int repeats = quick ? 2 : 3;

  // Untimed warmup: allocator arenas, cold instruction cache.
  (void)run_size(6, 1, 1);

  std::vector<HotpathResult> results;
  for (const Index n : sweep) {
    const int iters = n <= 8 ? 10 : (n <= 16 ? 3 : 1);
    results.push_back(run_size(n, n >= 32 ? 2 : repeats, iters));
    const HotpathResult& r = results.back();
    std::cout << "n=" << r.n << " assembly speedup x" << r.assembly_speedup << " (mt x"
              << r.assembly_speedup_mt << "), first-step CG iterations "
              << r.identity_cg_iterations << " (plain) / " << r.jacobi_cg_iterations
              << " (jacobi) -> " << r.block_cg_iterations << " (block-jacobi, x"
              << r.cg_iteration_reduction << "), solve " << r.solve_seconds << " s\n";
  }

  Table table({"series", "n", "equations", "unknowns", "seconds", "speedup"});
  for (const HotpathResult& r : results) {
    table.add("reference", r.n, r.equations, r.unknowns, r.reference_seconds, 1.0);
    table.add("kernel", r.n, r.equations, r.unknowns, r.kernel_seconds,
              r.assembly_speedup);
    table.add("kernel-mt", r.n, r.equations, r.unknowns, r.kernel_mt_seconds,
              r.assembly_speedup_mt);
    table.add("cg-plain", r.n, r.equations, r.unknowns, r.identity_cg_seconds, 1.0);
    table.add("cg-jacobi", r.n, r.equations, r.unknowns, r.jacobi_cg_seconds,
              r.identity_cg_seconds / r.jacobi_cg_seconds);
    table.add("cg-blockjacobi", r.n, r.equations, r.unknowns, r.block_cg_seconds,
              r.identity_cg_seconds / r.block_cg_seconds);
    table.add("solve", r.n, r.equations, r.unknowns, r.solve_seconds, 1.0);
  }
  bench::emit(table, "solver_hotpath");

  const std::string json_path = bench::results_dir() + "/solver_hotpath.json";
  write_json(results, json_path);
  std::cout << "saved: " << json_path << "\n";

  // Acceptance gates at n >= 16: >= 2x serial assembly speedup, >= 2x CG
  // iteration reduction from block-Jacobi vs unpreconditioned CG.
  bool assembly_met = false, reduction_met = false;
  for (const HotpathResult& r : results) {
    if (r.n < 16) continue;
    if (r.assembly_speedup >= 2.0) assembly_met = true;
    if (r.cg_iteration_reduction >= 2.0) reduction_met = true;
  }
  std::cout << (assembly_met ? "PASS" : "MISS")
            << ": kernel refresh vs CooBuilder assembly at n >= 16 (target 2x)\n";
  std::cout << (reduction_met ? "PASS" : "MISS")
            << ": first-step CG iteration reduction, block-Jacobi vs unpreconditioned, "
               "at n >= 16 (target 2x)\n";
  return (assembly_met && reduction_met) ? 0 : 1;
}
