// Tests for src/core: the Parma engine -- topology reports, strategy
// semantics, schedule invariants, I/O, and the distributed replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <type_traits>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/parma.hpp"
#include "equations/residual.hpp"
#include "linalg/vector_ops.hpp"
#include "mea/generator.hpp"

namespace parma::core {
namespace {

Engine make_engine(Index n, std::uint64_t seed = 7) {
  Rng rng(seed);
  const mea::DeviceSpec spec = mea::square_device(n);
  const auto options = mea::random_scenario(spec, 1, rng);
  const auto truth = mea::generate_field(spec, options, rng);
  return Engine(mea::measure_exact(spec, truth));
}

// The schedule-centric assertions below exercise the paper-figure replay, so
// they opt into kVirtualReplay; real-thread mode (the default) is covered by
// the dedicated tests further down and by tests/test_exec.cpp.
StrategyOptions options_for(Strategy strategy, Index workers, Index chunk = 1) {
  StrategyOptions o;
  o.strategy = strategy;
  o.workers = workers;
  o.chunk = chunk;
  o.timing_mode = TimingMode::kVirtualReplay;
  return o;
}

StrategyOptions real_options_for(Strategy strategy, Index workers, Index chunk = 1) {
  StrategyOptions o = options_for(strategy, workers, chunk);
  o.timing_mode = TimingMode::kRealThreads;
  return o;
}

TEST(Engine, TopologyReportMatchesClosedForms) {
  const Engine engine = make_engine(6);
  const TopologyReport report = engine.analyze_topology(/*exact_homology=*/true);
  EXPECT_EQ(report.num_joints, 2 * 36);
  EXPECT_EQ(report.complex_dimension, 1);
  EXPECT_EQ(report.betti0, 1);
  EXPECT_EQ(report.betti1, 25);  // (6-1)^2
  EXPECT_EQ(report.betti1, report.cyclomatic_number);
  EXPECT_EQ(report.intrinsic_parallelism, 25);
  EXPECT_TRUE(report.proposition1_holds);
}

TEST(Engine, RectangularDeviceTopology) {
  Rng rng(78);
  const mea::DeviceSpec spec{3, 7, 5.0};
  const auto truth = mea::generate_field(spec, mea::random_scenario(spec, 1, rng), rng);
  const Engine engine(mea::measure_exact(spec, truth));
  const TopologyReport report = engine.analyze_topology(true);
  EXPECT_EQ(report.num_joints, 2 * 21);
  EXPECT_EQ(report.betti1, (3 - 1) * (7 - 1));
  EXPECT_EQ(report.intrinsic_parallelism, 12);
  EXPECT_TRUE(report.proposition1_holds);
}

TEST(Engine, FastAndExactTopologyPathsAgree) {
  const Engine engine = make_engine(5);
  const TopologyReport fast = engine.analyze_topology(false);
  const TopologyReport exact = engine.analyze_topology(true);
  EXPECT_EQ(fast.betti0, exact.betti0);
  EXPECT_EQ(fast.betti1, exact.betti1);
}

TEST(Engine, FormationProducesTheFullCensus) {
  const Engine engine = make_engine(5);
  const FormationResult r = engine.form_equations(options_for(Strategy::kFineGrained, 8));
  EXPECT_EQ(static_cast<Index>(r.system.equations.size()), 2 * 5 * 5 * 5);
  EXPECT_GT(r.generation_seconds, 0.0);
  EXPECT_GT(r.equation_bytes, 0u);
  EXPECT_FALSE(r.tasks.empty());
}

TEST(Engine, AllStrategiesGenerateIdenticalSystems) {
  const Engine engine = make_engine(4);
  const FormationResult base = engine.form_equations(options_for(Strategy::kSingleThread, 1));
  for (const Strategy s :
       {Strategy::kParallel, Strategy::kBalancedParallel, Strategy::kFineGrained}) {
    const FormationResult other = engine.form_equations(options_for(s, 8));
    ASSERT_EQ(other.system.equations.size(), base.system.equations.size());
    // Same residual at a common state => same algebraic content.
    std::vector<Real> x(static_cast<std::size_t>(base.system.layout.num_unknowns()));
    for (std::size_t u = 0; u < x.size(); ++u) {
      x[u] = base.system.layout.is_resistance(static_cast<Index>(u)) ? 2500.0 : 1.0;
    }
    EXPECT_LT(linalg::relative_error(equations::system_residual(other.system, x),
                                     equations::system_residual(base.system, x)),
              1e-12);
  }
}

TEST(Engine, ScheduleInvariantsHold) {
  const Engine engine = make_engine(6);
  for (const Strategy s : {Strategy::kSingleThread, Strategy::kParallel,
                           Strategy::kBalancedParallel, Strategy::kFineGrained}) {
    const FormationResult r = engine.form_equations(options_for(s, 8));
    const Real work = r.schedule.total_work_seconds;
    EXPECT_GT(work, 0.0);
    EXPECT_GE(r.schedule.makespan_seconds, work / 8.0 - 1e-12);
    EXPECT_LE(r.schedule.efficiency(), 1.0 + 1e-9);
    // Virtual parallel runs never exceed serial time plus slack.
    const FormationResult serial =
        engine.form_equations(options_for(Strategy::kSingleThread, 1));
    EXPECT_LE(r.schedule.makespan_seconds,
              serial.schedule.makespan_seconds * 1.5 + 0.01);
  }
}

TEST(Engine, ParallelStrategyIsCappedAtFourWorkers) {
  const Engine engine = make_engine(5);
  const FormationResult wide = engine.form_equations(options_for(Strategy::kParallel, 32));
  EXPECT_LE(static_cast<Index>(wide.schedule.worker_finish.size()),
            equations::kNumCategories);
}

TEST(Engine, FineGrainedScalesBeyondCategoryBoundStrategies) {
  // At a practical size, PyMP-style parallelism with k = 32 must beat the
  // 4-thread-capped strategies (the Fig. 6 ordering at n >= 20).
  const Engine engine = make_engine(16);
  const Real parallel4 =
      engine.form_equations(options_for(Strategy::kParallel, 32)).virtual_seconds();
  const Real balanced =
      engine.form_equations(options_for(Strategy::kBalancedParallel, 32)).virtual_seconds();
  const Real fine =
      engine.form_equations(options_for(Strategy::kFineGrained, 32, 4)).virtual_seconds();
  EXPECT_LT(balanced, parallel4 * 1.001);  // balancing never hurts the cap-4 regime
  EXPECT_LT(fine, balanced);               // k >> 4 wins at scale
}

TEST(Engine, MemoryCdfPeaksAtSystemFootprint) {
  const Engine engine = make_engine(5);
  const FormationResult r = engine.form_equations(options_for(Strategy::kFineGrained, 4));
  const MemoryCdf cdf = r.memory_cdf(0);
  EXPECT_EQ(cdf.peak_bytes(), r.equation_bytes);
  EXPECT_NEAR(cdf.fraction_at_or_below(r.equation_bytes), 1.0, 1e-9);
}

TEST(Engine, PeakMemoryIndependentOfWorkerCount) {
  // Fig. 8: "the peak memory usage is about the same regardless of data
  // parallelism".
  const Engine engine = make_engine(6);
  const MemoryCdf k2 = engine.form_equations(options_for(Strategy::kFineGrained, 2)).memory_cdf(0);
  const MemoryCdf k16 =
      engine.form_equations(options_for(Strategy::kFineGrained, 16)).memory_cdf(0);
  EXPECT_EQ(k2.peak_bytes(), k16.peak_bytes());
}

TEST(Engine, WriteEquationsProducesShardsOnDisk) {
  const Engine engine = make_engine(4);
  const std::string dir = testing::TempDir() + "parma_core_io";
  std::filesystem::remove_all(dir);
  const IoResult io = engine.write_equations(dir, options_for(Strategy::kFineGrained, 3));
  EXPECT_EQ(io.shard_paths.size(), 3u);
  EXPECT_GT(io.bytes_written, 0u);
  EXPECT_GT(io.write_seconds, 0.0);
  EXPECT_GE(io.virtual_end_to_end, io.formation.virtual_seconds());
  std::uint64_t on_disk = 0;
  for (const auto& p : io.shard_paths) on_disk += std::filesystem::file_size(p);
  EXPECT_GE(on_disk, io.bytes_written);  // shard headers add a little
}

TEST(Engine, DistributedReplayScalesWithWork) {
  const Engine engine = make_engine(12);
  const FormationResult fine = engine.form_equations(options_for(Strategy::kFineGrained, 32));
  const auto at32 = engine.distributed_formation(fine, 32);
  const auto at1024 = engine.distributed_formation(fine, 1024);
  EXPECT_LT(at1024.compute_seconds, at32.compute_seconds);
  EXPECT_GT(at1024.comm_seconds, 0.0);
  EXPECT_GT(at32.makespan_seconds, 0.0);
}

TEST(Engine, RealThreadExecutionMatchesSerialSystem) {
  const Engine engine = make_engine(4);
  equations::EquationSystem parallel_system{equations::UnknownLayout(engine.spec()), {}};
  const Real elapsed = engine.execute_real_threads(4, &parallel_system);
  EXPECT_GT(elapsed, 0.0);
  const FormationResult serial = engine.form_equations(options_for(Strategy::kSingleThread, 1));
  ASSERT_EQ(parallel_system.equations.size(), serial.system.equations.size());
  std::vector<Real> x(static_cast<std::size_t>(serial.system.layout.num_unknowns()), 3000.0);
  for (Index u = serial.system.layout.num_resistors();
       u < serial.system.layout.num_unknowns(); ++u) {
    x[static_cast<std::size_t>(u)] = 2.0;
  }
  EXPECT_LT(linalg::relative_error(equations::system_residual(parallel_system, x),
                                   equations::system_residual(serial.system, x)),
            1e-12);
}

TEST(Engine, RecoverRoundTripsTheInverseProblem) {
  Rng rng(77);
  const mea::DeviceSpec spec = mea::square_device(4);
  mea::GeneratorOptions gen;
  gen.jitter_fraction = 0.01;
  gen.anomalies.push_back({2.0, 2.0, 1.0, 1.0, 9000.0});
  const auto truth = mea::generate_field(spec, gen, rng);
  const Engine engine(mea::measure_exact(spec, truth));
  solver::InverseOptions options;
  options.max_iterations = 80;
  const solver::InverseResult result = engine.recover(options);
  EXPECT_LT(result.max_relative_error(truth), 1e-3);
}

TEST(Engine, StreamingFormationMatchesMaterializedMetrics) {
  // keep_system = false discards equations after measuring them; every
  // metric (census, footprint, task structure) must match the materialized
  // run, and the system must come back empty.
  const Engine engine = make_engine(6);
  StrategyOptions keep = options_for(Strategy::kFineGrained, 8);
  StrategyOptions stream = keep;
  stream.keep_system = false;
  const FormationResult with = engine.form_equations(keep);
  const FormationResult without = engine.form_equations(stream);
  EXPECT_TRUE(without.system.equations.empty());
  EXPECT_EQ(without.equation_bytes, with.equation_bytes);
  ASSERT_EQ(without.tasks.size(), with.tasks.size());
  for (std::size_t t = 0; t < with.tasks.size(); ++t) {
    EXPECT_EQ(without.tasks[t].bytes, with.tasks[t].bytes);
    EXPECT_EQ(without.tasks[t].category, with.tasks[t].category);
  }
}

TEST(Engine, StreamingWriteMatchesMaterializedBytes) {
  const Engine engine = make_engine(4);
  const std::string dir_a = testing::TempDir() + "parma_stream_a";
  const std::string dir_b = testing::TempDir() + "parma_stream_b";
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
  StrategyOptions keep = options_for(Strategy::kFineGrained, 2);
  StrategyOptions stream = keep;
  stream.keep_system = false;
  const IoResult a = engine.write_equations(dir_a, keep);
  const IoResult b = engine.write_equations(dir_b, stream);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  for (std::size_t s = 0; s < a.shard_paths.size(); ++s) {
    EXPECT_EQ(std::filesystem::file_size(a.shard_paths[s]),
              std::filesystem::file_size(b.shard_paths[s]));
  }
}

TEST(Engine, RealThreadsIsTheDefaultTimingMode) {
  const Engine engine = make_engine(4);
  StrategyOptions defaults;
  EXPECT_EQ(defaults.timing_mode, TimingMode::kRealThreads);
  const FormationResult r = engine.form_equations(defaults);
  EXPECT_EQ(r.timing_mode, TimingMode::kRealThreads);
  EXPECT_EQ(static_cast<Index>(r.system.equations.size()), engine.spec().num_equations());
  EXPECT_GT(r.generation_seconds, 0.0);
  EXPECT_EQ(r.effective_workers, defaults.workers);
  // Real runs report a measured summary, not a virtual per-task timeline.
  EXPECT_TRUE(r.schedule.assignment.empty());
  EXPECT_EQ(r.schedule.makespan_seconds, r.generation_seconds);
}

TEST(Engine, RealModeMatchesVirtualSystemForEveryStrategy) {
  const Engine engine = make_engine(4);
  const FormationResult base = engine.form_equations(options_for(Strategy::kSingleThread, 1));
  for (const Strategy s : {Strategy::kSingleThread, Strategy::kParallel,
                           Strategy::kBalancedParallel, Strategy::kFineGrained}) {
    const FormationResult real = engine.form_equations(real_options_for(s, 3));
    ASSERT_EQ(real.system.equations.size(), base.system.equations.size());
    std::vector<Real> x(static_cast<std::size_t>(base.system.layout.num_unknowns()));
    for (std::size_t u = 0; u < x.size(); ++u) {
      x[u] = base.system.layout.is_resistance(static_cast<Index>(u)) ? 2500.0 : 1.0;
    }
    EXPECT_LT(linalg::relative_error(equations::system_residual(real.system, x),
                                     equations::system_residual(base.system, x)),
              1e-12);
  }
}

TEST(Engine, InvalidOptionsAreRejectedWithTypedError) {
  const Engine engine = make_engine(4);
  StrategyOptions zero_workers;
  zero_workers.workers = 0;
  EXPECT_THROW((void)engine.form_equations(zero_workers), InvalidOptions);
  EXPECT_THROW((void)engine.write_equations(testing::TempDir() + "parma_invalid",
                                            zero_workers),
               InvalidOptions);

  StrategyOptions zero_chunk;
  zero_chunk.chunk = 0;
  EXPECT_THROW((void)engine.form_equations(zero_chunk), InvalidOptions);
  EXPECT_THROW(zero_chunk.validate(), InvalidOptions);

  StrategyOptions negative;
  negative.workers = -3;
  EXPECT_THROW(negative.validate(), InvalidOptions);

  // InvalidOptions stays catchable as the base contract error.
  EXPECT_THROW(zero_workers.validate(), ContractError);
  StrategyOptions fine;
  EXPECT_NO_THROW(fine.validate());
}

TEST(Engine, EffectiveWorkersSurfacesTheCategoryCap) {
  const Engine engine = make_engine(4);
  for (const auto mode : {TimingMode::kRealThreads, TimingMode::kVirtualReplay}) {
    StrategyOptions capped = options_for(Strategy::kParallel, 32);
    capped.timing_mode = mode;
    EXPECT_EQ(engine.form_equations(capped).effective_workers, kCategoryWorkerCap);

    StrategyOptions balanced = options_for(Strategy::kBalancedParallel, 9);
    balanced.timing_mode = mode;
    EXPECT_EQ(engine.form_equations(balanced).effective_workers, kCategoryWorkerCap);

    StrategyOptions fine = options_for(Strategy::kFineGrained, 9);
    fine.timing_mode = mode;
    EXPECT_EQ(engine.form_equations(fine).effective_workers, 9);

    StrategyOptions serial = options_for(Strategy::kSingleThread, 9);
    serial.timing_mode = mode;
    EXPECT_EQ(engine.form_equations(serial).effective_workers, 1);
  }
}

TEST(Engine, MemoryCdfRequiresTheVirtualTimeline) {
  const Engine engine = make_engine(4);
  const FormationResult real = engine.form_equations(real_options_for(Strategy::kFineGrained, 2));
  EXPECT_THROW((void)real.memory_cdf(0), ContractError);
}

TEST(Engine, RealWriteEquationsProducesIdenticalShards) {
  const Engine engine = make_engine(4);
  const std::string dir_virtual = testing::TempDir() + "parma_write_virtual";
  const std::string dir_real = testing::TempDir() + "parma_write_real";
  std::filesystem::remove_all(dir_virtual);
  std::filesystem::remove_all(dir_real);
  const IoResult v = engine.write_equations(dir_virtual, options_for(Strategy::kFineGrained, 3));
  const IoResult r =
      engine.write_equations(dir_real, real_options_for(Strategy::kFineGrained, 3));
  ASSERT_EQ(v.shard_paths.size(), r.shard_paths.size());
  EXPECT_EQ(v.bytes_written, r.bytes_written);
  EXPECT_GE(r.virtual_end_to_end, r.write_seconds);
  for (std::size_t s = 0; s < v.shard_paths.size(); ++s) {
    EXPECT_EQ(std::filesystem::file_size(v.shard_paths[s]),
              std::filesystem::file_size(r.shard_paths[s]));
  }
}

TEST(Session, BuilderFormsAndRecovers) {
  Rng rng(91);
  const mea::DeviceSpec spec = mea::square_device(4);
  mea::GeneratorOptions gen;
  gen.jitter_fraction = 0.01;
  gen.anomalies.push_back({2.0, 2.0, 1.0, 1.0, 9000.0});
  const auto truth = mea::generate_field(spec, gen, rng);

  const core::Session session = core::Session::on(mea::measure_exact(spec, truth))
                                    .strategy(Strategy::kFineGrained)
                                    .workers(2)
                                    .chunk(2)
                                    .build();
  const FormationResult formation = session.form();
  EXPECT_EQ(static_cast<Index>(formation.system.equations.size()), spec.num_equations());
  EXPECT_EQ(formation.timing_mode, TimingMode::kRealThreads);
  EXPECT_EQ(formation.effective_workers, 2);

  solver::InverseOptions inverse;
  inverse.max_iterations = 80;
  const solver::InverseResult recovery = session.recover(inverse);
  EXPECT_LT(recovery.max_relative_error(truth), 1e-3);
}

TEST(Session, BuilderRejectsInvalidOptions) {
  const Engine engine = make_engine(4);
  EXPECT_THROW((void)core::Session::on(engine.measurement()).workers(0).build(),
               InvalidOptions);
  EXPECT_THROW((void)core::Session::on(engine.measurement()).chunk(0).build(),
               InvalidOptions);
}

TEST(Session, FormationCacheIsSharedAcrossSessions) {
  const auto cache = std::make_shared<FormationCache>();
  const Engine proto = make_engine(5);

  const core::Session first =
      core::Session::on(proto.measurement()).cache(cache).build();
  const TopologyReport a = first.topology();
  EXPECT_EQ(cache->stats().topology_misses, 1u);
  EXPECT_EQ(cache->stats().topology_hits, 0u);

  const TopologyReport b = first.topology();  // same session: hit
  EXPECT_EQ(cache->stats().topology_hits, 1u);
  EXPECT_EQ(a.betti1, b.betti1);

  // A second session on the same device shape reuses the analysis.
  const core::Session second =
      core::Session::on(make_engine(5, 99).measurement()).cache(cache).build();
  const TopologyReport c = second.topology();
  EXPECT_EQ(cache->stats().topology_hits, 2u);
  EXPECT_EQ(cache->stats().topology_misses, 1u);
  EXPECT_EQ(c.betti1, a.betti1);

  // Layouts are memoized too, and shared by shape.
  const auto layout1 = first.layout();
  const auto layout2 = second.layout();
  EXPECT_EQ(layout1.get(), layout2.get());
  EXPECT_EQ(cache->stats().layout_misses, 1u);
  EXPECT_EQ(cache->stats().layout_hits, 1u);

  // A different shape misses.
  const core::Session other =
      core::Session::on(make_engine(6).measurement()).cache(cache).build();
  (void)other.topology();
  EXPECT_EQ(cache->stats().topology_misses, 2u);

  cache->clear();
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_EQ(cache->stats().topology_hits, 0u);
}

TEST(Session, DefaultsToTheProcessGlobalCache) {
  const Engine proto = make_engine(4);
  const core::Session session = core::Session::on(proto.measurement()).build();
  EXPECT_EQ(session.cache().get(), FormationCache::global().get());
}

TEST(Engine, StrategyNamesAreStable) {
  EXPECT_STREQ(strategy_name(Strategy::kSingleThread), "single-thread");
  EXPECT_STREQ(strategy_name(Strategy::kParallel), "parallel");
  EXPECT_STREQ(strategy_name(Strategy::kBalancedParallel), "balanced-parallel");
  EXPECT_STREQ(strategy_name(Strategy::kFineGrained), "fine-grained");
  EXPECT_STREQ(timing_mode_name(TimingMode::kRealThreads), "real-threads");
  EXPECT_STREQ(timing_mode_name(TimingMode::kVirtualReplay), "virtual-replay");
}

// Property sweep: schedule invariants must hold for every (strategy, n, k)
// combination, not just the hand-picked cases above.
//
// gtest names each case after the raw bytes of its parameter, so SweepCase
// must have no padding: uninitialised padding bytes made the test names
// change from one run of the binary to the next.
struct SweepCase {
  Strategy strategy;
  std::int32_t unused = 0;  // fills the gap before the 8-byte Index fields
  Index n;
  Index workers;
};
static_assert(std::has_unique_object_representations_v<SweepCase>);

class StrategySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(StrategySweep, ScheduleIsWellFormed) {
  const SweepCase c = GetParam();
  const Engine engine = make_engine(c.n, 1000 + static_cast<std::uint64_t>(c.n));
  const FormationResult r = engine.form_equations(options_for(c.strategy, c.workers));

  // Census invariants.
  EXPECT_EQ(static_cast<Index>(r.system.equations.size()), engine.spec().num_equations());
  EXPECT_EQ(r.equation_bytes, r.system.footprint_bytes());

  // Schedule invariants.
  const auto& s = r.schedule;
  EXPECT_GT(s.total_work_seconds, 0.0);
  EXPECT_GE(s.makespan_seconds,
            s.total_work_seconds / static_cast<Real>(s.worker_finish.size()) - 1e-12);
  EXPECT_LE(s.efficiency(), 1.0 + 1e-9);
  ASSERT_EQ(s.assignment.size(), r.tasks.size());
  ASSERT_EQ(s.start_time.size(), r.tasks.size());
  for (std::size_t t = 0; t < r.tasks.size(); ++t) {
    EXPECT_GE(s.assignment[t], 0);
    EXPECT_LT(s.assignment[t], static_cast<Index>(s.worker_finish.size()));
    EXPECT_GE(s.start_time[t], 0.0);
    EXPECT_LE(s.start_time[t] + r.tasks[t].cost_seconds, s.makespan_seconds + 1e-9);
  }
  // Memory trace is monotone and peaks at the footprint.
  const MemoryCdf cdf = r.memory_cdf(0);
  EXPECT_EQ(cdf.peak_bytes(), r.equation_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategySweep,
    ::testing::Values(SweepCase{.strategy = Strategy::kSingleThread, .n = 4, .workers = 1},
                      SweepCase{.strategy = Strategy::kSingleThread, .n = 8, .workers = 1},
                      SweepCase{.strategy = Strategy::kParallel, .n = 4, .workers = 4},
                      SweepCase{.strategy = Strategy::kParallel, .n = 8, .workers = 32},
                      SweepCase{.strategy = Strategy::kBalancedParallel, .n = 4, .workers = 4},
                      SweepCase{.strategy = Strategy::kBalancedParallel, .n = 8, .workers = 16},
                      SweepCase{.strategy = Strategy::kFineGrained, .n = 4, .workers = 2},
                      SweepCase{.strategy = Strategy::kFineGrained, .n = 8, .workers = 8},
                      SweepCase{.strategy = Strategy::kFineGrained, .n = 10, .workers = 32}));

TEST(Engine, RejectsMalformedInput) {
  mea::Measurement bad;
  bad.spec = mea::square_device(3);
  bad.z = linalg::DenseMatrix(2, 2);  // wrong shape
  bad.u = linalg::DenseMatrix(2, 2);
  EXPECT_THROW(Engine{bad}, ContractError);
}

}  // namespace
}  // namespace parma::core
