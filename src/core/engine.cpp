#include "core/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include "common/logging.hpp"
#include "common/require.hpp"
#include "common/stopwatch.hpp"
#include "equations/serializer.hpp"
#include "exec/executor.hpp"
#include "topology/boundary.hpp"

namespace parma::core {

namespace {

/// Real-mode chunking mirrors each strategy's task shape: the serial baseline
/// is one chunk, the coarse category-bound strategies bundle one device row
/// of pairs per task, and the fine-grained strategy self-schedules
/// `options.chunk` pairs at a time.
Index real_chunk(const StrategyOptions& options, const mea::DeviceSpec& spec) {
  switch (options.strategy) {
    case Strategy::kSingleThread:
      return std::max<Index>(spec.num_endpoint_pairs(), 1);
    case Strategy::kParallel:
    case Strategy::kBalancedParallel:
      return spec.cols;
    case Strategy::kFineGrained:
      return options.chunk;
  }
  return 1;
}

void warn_if_capped(const StrategyOptions& options) {
  if ((options.strategy == Strategy::kParallel ||
       options.strategy == Strategy::kBalancedParallel) &&
      options.workers > kCategoryWorkerCap) {
    PARMA_LOG_WARN << strategy_name(options.strategy) << " strategy caps workers at "
                   << kCategoryWorkerCap << " (one per constraint category); requested "
                   << options.workers << ", using " << kCategoryWorkerCap;
  }
}

// EquationSystem's layout member has no default constructor, so the aggregate
// needs every field spelled out.
FormationResult empty_formation(const mea::DeviceSpec& spec) {
  return FormationResult{equations::EquationSystem{equations::UnknownLayout(spec), {}},
                         0.0,
                         parallel::ScheduleResult{},
                         {},
                         0,
                         1,
                         TimingMode::kRealThreads};
}

}  // namespace

MemoryCdf FormationResult::memory_cdf(std::uint64_t baseline_bytes) const {
  PARMA_REQUIRE(schedule.assignment.size() == tasks.size(),
                "memory_cdf requires the per-task virtual timeline; form with "
                "timing_mode = TimingMode::kVirtualReplay");
  return MemoryCdf(schedule.memory_trace(tasks, baseline_bytes));
}

Engine::Engine(mea::Measurement measurement) : measurement_(std::move(measurement)) {
  measurement_.spec.validate();
  PARMA_REQUIRE(measurement_.z.rows() == spec().rows && measurement_.z.cols() == spec().cols,
                "measurement matrix does not match device");
  // Payload validation after the structural checks: a NaN or non-positive Z
  // entry surfaces here as a typed InvalidMeasurement instead of propagating
  // into the solve.
  mea::validate_measurement(measurement_);
}

TopologyReport Engine::analyze_topology(bool exact_homology) const {
  const topology::WireComplex wc =
      topology::build_wire_complex(spec().rows, spec().cols);
  TopologyReport report;
  report.num_joints = wc.num_vertices;
  report.num_simplices = wc.complex.total_count();
  report.complex_dimension = wc.complex.dimension();
  report.intrinsic_parallelism =
      topology::expected_betti1_crossbar(spec().rows, spec().cols);

  const topology::CycleBasis basis(wc.num_vertices, wc.edges);
  report.cyclomatic_number = basis.cyclomatic_number();

  if (exact_homology) {
    report.betti0 = topology::betti_number(wc.complex, 0);
    report.betti1 = topology::betti_number(wc.complex, 1);
  } else {
    // Identical by rank-nullity over GF(2); the equality is asserted by the
    // topology tests on devices small enough for the exact reduction.
    report.betti0 = basis.num_components();
    report.betti1 = report.cyclomatic_number;
  }

  // The full pairwise-intersection audit is quadratic in |E|; run it on
  // devices where that is cheap and fall back to the structural dimension
  // check (the load-bearing half of Proposition 1) on large ones.
  if (static_cast<Index>(wc.edges.size()) <= 2000) {
    report.proposition1_holds = topology::satisfies_proposition1(wc);
  } else {
    report.proposition1_holds = (report.complex_dimension == 1);
  }
  return report;
}

std::vector<parallel::VirtualTask> Engine::build_tasks(
    const equations::EquationSystem& system, Real generation_seconds,
    TaskGranularity granularity) const {
  // Costs are apportioned from the measured total by each task's share of
  // term count (terms dominate both allocation and arithmetic), preserving
  // the cubic skew between the terminal and intermediate categories that
  // drives the paper's balancing discussion.
  const Index groups = (granularity == TaskGranularity::kFinePairCategory)
                           ? spec().num_endpoint_pairs()
                           : spec().rows;
  std::vector<parallel::VirtualTask> tasks(
      static_cast<std::size_t>(groups) * equations::kNumCategories);
  std::uint64_t total_terms = 0;
  for (const auto& eq : system.equations) total_terms += eq.terms.size();
  PARMA_REQUIRE(total_terms > 0, "system has no terms");

  const equations::UnknownLayout& layout = system.layout;
  for (const auto& eq : system.equations) {
    const Index group = (granularity == TaskGranularity::kFinePairCategory)
                            ? layout.pair_id(eq.pair_i, eq.pair_j)
                            : eq.pair_i;
    auto& task = tasks[static_cast<std::size_t>(group * equations::kNumCategories +
                                                 static_cast<Index>(eq.category))];
    task.category = static_cast<Index>(eq.category);
    task.cost_seconds += generation_seconds * static_cast<Real>(eq.terms.size()) /
                         static_cast<Real>(total_terms);
    task.bytes += eq.footprint_bytes();
  }
  return tasks;
}

FormationResult Engine::form_equations(const StrategyOptions& options) const {
  options.validate();
  warn_if_capped(options);
  return (options.timing_mode == TimingMode::kRealThreads)
             ? form_equations_real(options)
             : form_equations_virtual(options);
}

FormationResult Engine::form_equations(const StrategyOptions& options,
                                       exec::Executor& executor) const {
  PARMA_REQUIRE(options.timing_mode == TimingMode::kRealThreads,
                "caller-supplied executors require TimingMode::kRealThreads");
  return form_equations_real(options, &executor);
}

FormationResult Engine::form_equations_real(const StrategyOptions& options,
                                            exec::Executor* external) const {
  FormationResult result = empty_formation(spec());
  result.timing_mode = TimingMode::kRealThreads;
  result.effective_workers = effective_workers(options);

  const TaskGranularity granularity = (options.strategy == Strategy::kFineGrained)
                                          ? TaskGranularity::kFinePairCategory
                                          : TaskGranularity::kCoarseRowCategory;
  const Index groups = (granularity == TaskGranularity::kFinePairCategory)
                           ? spec().num_endpoint_pairs()
                           : spec().rows;
  result.tasks.assign(static_cast<std::size_t>(groups) * equations::kNumCategories, {});
  std::vector<std::uint64_t> task_terms(result.tasks.size(), 0);
  std::uint64_t total_terms = 0;

  const Index pairs = spec().num_endpoint_pairs();
  std::vector<std::vector<equations::JointEquation>> slots(
      options.keep_system ? static_cast<std::size_t>(pairs) : 0);

  std::unique_ptr<exec::Executor> owned;
  if (external == nullptr) {
    owned = exec::make_executor(backend_for(options), result.effective_workers);
    external = owned.get();
  }
  exec::Executor& executor = *external;
  result.effective_workers = executor.workers();
  std::mutex accum_mu;
  const exec::BulkResult bulk = executor.submit_bulk(
      0, pairs, real_chunk(options, spec()),
      [&](Index lo, Index hi) {
        for (Index p = lo; p < hi; ++p) {
          const Index i = p / spec().cols;
          const Index j = p % spec().cols;
          std::vector<equations::JointEquation> pair_eqs =
              equations::generate_pair_equations(result.system.layout, measurement_, i, j);
          // All equations of a pair share one group (the pair for fine
          // granularity, the device row for coarse); pre-aggregate per
          // category so the lock only covers a handful of slot updates.
          const Index group = (granularity == TaskGranularity::kFinePairCategory) ? p : i;
          std::uint64_t local_terms[equations::kNumCategories] = {};
          std::uint64_t local_bytes[equations::kNumCategories] = {};
          std::uint64_t pair_bytes = 0;
          for (const auto& eq : pair_eqs) {
            const auto c = static_cast<std::size_t>(eq.category);
            local_terms[c] += eq.terms.size();
            local_bytes[c] += eq.footprint_bytes();
            pair_bytes += eq.footprint_bytes();
          }
          {
            std::lock_guard lock(accum_mu);
            for (int c = 0; c < equations::kNumCategories; ++c) {
              if (local_terms[c] == 0 && local_bytes[c] == 0) continue;
              const std::size_t slot =
                  static_cast<std::size_t>(group * equations::kNumCategories + c);
              result.tasks[slot].category = c;
              result.tasks[slot].bytes += local_bytes[c];
              task_terms[slot] += local_terms[c];
              total_terms += local_terms[c];
            }
            result.equation_bytes += pair_bytes;
          }
          if (options.keep_system) slots[static_cast<std::size_t>(p)] = std::move(pair_eqs);
        }
      },
      /*capture_costs=*/true);
  result.generation_seconds = bulk.elapsed_seconds;
  PARMA_REQUIRE(total_terms > 0, "system has no terms");

  // Apportion the aggregate measured CPU time (sum of per-chunk wall times
  // across workers) by term share, as the virtual path does with the serial
  // generation time.
  const Real cpu_seconds = bulk.cpu_seconds();
  for (std::size_t t = 0; t < result.tasks.size(); ++t) {
    result.tasks[t].cost_seconds =
        cpu_seconds * static_cast<Real>(task_terms[t]) / static_cast<Real>(total_terms);
  }

  if (options.keep_system) {
    const Index expected = equations::expected_equation_count(measurement_);
    result.system.equations.reserve(static_cast<std::size_t>(expected));
    for (auto& slot : slots) {
      for (auto& eq : slot) result.system.equations.push_back(std::move(eq));
    }
    PARMA_REQUIRE(static_cast<Index>(result.system.equations.size()) == expected,
                  "real-thread formation produced wrong equation count");
  }

  // Measured summary: real wall-clock makespan, aggregate work, no virtual
  // per-task timeline (assignment/start_time stay empty by design).
  result.schedule.makespan_seconds = bulk.elapsed_seconds;
  result.schedule.total_work_seconds = cpu_seconds;
  result.schedule.worker_finish.assign(static_cast<std::size_t>(result.effective_workers),
                                       bulk.elapsed_seconds);
  return result;
}

FormationResult Engine::form_equations_virtual(const StrategyOptions& options) const {
  FormationResult result = empty_formation(spec());
  result.timing_mode = TimingMode::kVirtualReplay;
  result.effective_workers = effective_workers(options);
  if (options.keep_system) {
    result.system.equations.reserve(
        static_cast<std::size_t>(equations::expected_equation_count(measurement_)));
  }

  // Coarse-grained strategies bundle one device row per category; the
  // fine-grained (PyMP-style) strategy works at (pair x category) units.
  const TaskGranularity granularity = (options.strategy == Strategy::kFineGrained)
                                          ? TaskGranularity::kFinePairCategory
                                          : TaskGranularity::kCoarseRowCategory;
  const Index groups = (granularity == TaskGranularity::kFinePairCategory)
                           ? spec().num_endpoint_pairs()
                           : spec().rows;
  result.tasks.assign(static_cast<std::size_t>(groups) * equations::kNumCategories, {});
  std::vector<std::uint64_t> task_terms(result.tasks.size(), 0);
  std::uint64_t total_terms = 0;

  Stopwatch total;
  for (Index i = 0; i < spec().rows; ++i) {
    for (Index j = 0; j < spec().cols; ++j) {
      std::vector<equations::JointEquation> pair_eqs =
          equations::generate_pair_equations(result.system.layout, measurement_, i, j);
      for (auto& eq : pair_eqs) {
        const Index group = (granularity == TaskGranularity::kFinePairCategory)
                                ? result.system.layout.pair_id(i, j)
                                : i;
        const std::size_t slot = static_cast<std::size_t>(
            group * equations::kNumCategories + static_cast<Index>(eq.category));
        task_terms[slot] += eq.terms.size();
        total_terms += eq.terms.size();
        result.tasks[slot].category = static_cast<Index>(eq.category);
        result.tasks[slot].bytes += eq.footprint_bytes();
        result.equation_bytes += eq.footprint_bytes();
        if (options.keep_system) result.system.equations.push_back(std::move(eq));
      }
    }
  }
  result.generation_seconds = total.elapsed_seconds();
  PARMA_REQUIRE(total_terms > 0, "system has no terms");
  for (std::size_t t = 0; t < result.tasks.size(); ++t) {
    result.tasks[t].cost_seconds = result.generation_seconds *
                                   static_cast<Real>(task_terms[t]) /
                                   static_cast<Real>(total_terms);
  }

  switch (options.strategy) {
    case Strategy::kSingleThread:
      result.schedule = parallel::schedule_serial(result.tasks, options.cost_model);
      break;
    case Strategy::kParallel:
      // The paper: "we are restricted from having more than four threads".
      result.schedule = parallel::schedule_by_category(
          result.tasks, result.effective_workers, options.cost_model);
      break;
    case Strategy::kBalancedParallel:
      // Work-stealing among the category threads (Section IV-C1): it lifts
      // Parallel's skew, but keeps Parallel's four-thread structure -- the
      // paper classifies it as coarse-grained, and it is the fine-grained
      // strategy's ability to use k >> 4 workers that overtakes it at scale.
      result.schedule = parallel::schedule_balanced_lpt(
          result.tasks, result.effective_workers, options.cost_model);
      break;
    case Strategy::kFineGrained:
      result.schedule = parallel::schedule_dynamic(result.tasks, options.workers,
                                                   options.chunk, options.cost_model);
      break;
  }
  return result;
}

IoResult Engine::write_equations(const std::string& directory,
                                 const StrategyOptions& options) const {
  options.validate();
  // The shard layout assumes the full fixed per-pair equation census; a
  // masked sweep (variable equations per pair) is a serve-path concern, not a
  // serialization one.
  PARMA_REQUIRE(mea::masked_entry_count(measurement_) == 0,
                "write_equations does not support masked measurements");
  IoResult io{form_equations(options), 0.0, 0.0, 0, {}};
  const Index shards = options.workers;
  std::filesystem::create_directories(directory);

  // One contiguous pair-range shard per worker. Shards are streamed pair by
  // pair (regenerating equations when the formation pass discarded them), so
  // resident memory stays bounded at large n.
  const bool have_system = !io.formation.system.equations.empty();
  const Index pairs = spec().num_endpoint_pairs();

  // Writes shard `s` to its own file; returns bytes written and fills
  // `serialize_seconds` with the time spent serializing (excluding any
  // regeneration, which is billed to the formation phase).
  auto write_shard = [&](Index s, Real& serialize_seconds) -> std::pair<std::string, std::uint64_t> {
    const Index first_pair = pairs * s / shards;
    const Index last_pair = pairs * (s + 1) / shards;
    std::ostringstream name;
    name << directory << "/equations_shard_" << s << ".txt";
    Stopwatch shard_clock;
    std::ofstream out(name.str());
    if (!out) throw IoError("cannot open '" + name.str() + "' for writing");
    out << "# parma-equations v1 shard " << s << "/" << shards << '\n';
    std::uint64_t bytes = 0;
    serialize_seconds = 0.0;
    if (have_system) {
      const std::size_t eq_per_pair =
          static_cast<std::size_t>(spec().num_equations() / pairs);
      bytes = equations::write_system_range(
          out, io.formation.system, static_cast<std::size_t>(first_pair) * eq_per_pair,
          static_cast<std::size_t>(last_pair) * eq_per_pair);
      serialize_seconds = shard_clock.elapsed_seconds();
    } else {
      for (Index p = first_pair; p < last_pair; ++p) {
        const auto pair_eqs = equations::generate_pair_equations(
            io.formation.system.layout, measurement_, p / spec().cols, p % spec().cols);
        Stopwatch write_clock;
        for (const auto& eq : pair_eqs) bytes += equations::write_equation_line(out, eq);
        serialize_seconds += write_clock.elapsed_seconds();
      }
    }
    out.flush();
    if (!out) throw IoError("write to '" + name.str() + "' failed");
    return {name.str(), bytes};
  };

  std::vector<std::string> shard_paths(static_cast<std::size_t>(shards));
  std::vector<std::uint64_t> shard_bytes(static_cast<std::size_t>(shards), 0);
  std::vector<Real> shard_serialize(static_cast<std::size_t>(shards), 0.0);

  Stopwatch all_writes;
  if (options.timing_mode == TimingMode::kRealThreads) {
    // Real mode: shards go to independent files, so each is one executor
    // task and the k concurrent writers are actual threads.
    const auto executor = exec::make_executor(
        backend_for(options), std::min<Index>(io.formation.effective_workers, shards));
    executor->submit_bulk(0, shards, 1, [&](Index lo, Index hi) {
      for (Index s = lo; s < hi; ++s) {
        auto [path, bytes] = write_shard(s, shard_serialize[static_cast<std::size_t>(s)]);
        shard_paths[static_cast<std::size_t>(s)] = std::move(path);
        shard_bytes[static_cast<std::size_t>(s)] = bytes;
      }
    });
  } else {
    for (Index s = 0; s < shards; ++s) {
      auto [path, bytes] = write_shard(s, shard_serialize[static_cast<std::size_t>(s)]);
      shard_paths[static_cast<std::size_t>(s)] = std::move(path);
      shard_bytes[static_cast<std::size_t>(s)] = bytes;
    }
  }
  io.write_seconds = all_writes.elapsed_seconds();

  io.shard_paths = std::move(shard_paths);
  for (const std::uint64_t b : shard_bytes) io.bytes_written += b;

  if (options.timing_mode == TimingMode::kRealThreads) {
    io.virtual_end_to_end = io.formation.generation_seconds + io.write_seconds;
  } else {
    // Virtual end-to-end: the formation makespan plus the slowest shard's
    // write, modeling k concurrent writers on independent files.
    std::vector<parallel::VirtualTask> write_tasks;
    write_tasks.reserve(static_cast<std::size_t>(shards));
    for (Index s = 0; s < shards; ++s) {
      write_tasks.push_back({shard_serialize[static_cast<std::size_t>(s)], 0,
                             shard_bytes[static_cast<std::size_t>(s)]});
    }
    const parallel::ScheduleResult write_schedule =
        parallel::schedule_balanced_lpt(write_tasks, shards, options.cost_model);
    io.virtual_end_to_end =
        io.formation.virtual_seconds() + write_schedule.makespan_seconds;
  }
  return io;
}

mpisim::ClusterResult Engine::distributed_formation(const FormationResult& formation,
                                                    Index ranks,
                                                    const mpisim::ClusterCostModel& model) const {
  mpisim::ClusterCostModel tuned = model;
  if (tuned.broadcast_bytes == 0) {
    // Every rank needs the measured Z and U matrices.
    tuned.broadcast_bytes =
        2 * static_cast<std::uint64_t>(spec().rows * spec().cols) * sizeof(Real);
  }
  return mpisim::simulate_cluster(formation.tasks, ranks, tuned);
}

Real Engine::execute_real_threads(Index workers, equations::EquationSystem* out) const {
  StrategyOptions options;
  options.strategy = Strategy::kFineGrained;
  options.workers = workers;
  options.chunk = 4;
  options.timing_mode = TimingMode::kRealThreads;
  options.backend = exec::Backend::kPooled;
  FormationResult result = form_equations(options);
  if (out != nullptr) *out = std::move(result.system);
  return result.generation_seconds;
}

solver::InverseResult Engine::recover(const solver::InverseOptions& options) const {
  return solver::recover_resistances(measurement_, options);
}

}  // namespace parma::core
